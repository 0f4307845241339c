package server

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"crackdb/internal/sql"
)

// The code this PR replaced, kept as the oracles the new code is held
// against.

// decodeResponseScanner is the response decoder as it was: a
// bufio.Scanner with a fresh 64 KB buffer per response, a Text() and a
// strings.Split per line, the row slice sized by the announced count.
func decodeResponseScanner(payload []byte) (*Response, error) {
	var seq uint64
	var hasSeq bool
	if len(payload) > 0 && payload[0] == '@' {
		sp := bytes.IndexByte(payload, ' ')
		if sp < 2 {
			return nil, fmt.Errorf("server: malformed sequence tag in response %q", payload)
		}
		v, err := strconv.ParseUint(string(payload[1:sp]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server: bad sequence tag in response: %v", err)
		}
		seq, hasSeq = v, true
		payload = payload[sp+1:]
	}
	sc := bufio.NewScanner(strings.NewReader(string(payload)))
	sc.Buffer(make([]byte, 1<<16), MaxFrame)
	if !sc.Scan() {
		return nil, fmt.Errorf("server: empty response frame")
	}
	status := sc.Text()
	resp := &Response{Seq: seq, HasSeq: hasSeq}
	switch {
	case strings.HasPrefix(status, "err "):
		resp.Err = status[len("err "):]
	case strings.HasPrefix(status, "ok msg="):
		resp.Message = status[len("ok msg="):]
	case strings.HasPrefix(status, "ok rows="):
		n, err := strconv.Atoi(status[len("ok rows="):])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("server: bad row count in status %q", status)
		}
		if !sc.Scan() {
			return nil, fmt.Errorf("server: tabular response missing header")
		}
		resp.Columns, resp.Rows = strings.Split(sc.Text(), "\t"), make([][]string, 0, n)
		for i := 0; i < n; i++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("server: response announced %d rows, carried %d", n, i)
			}
			resp.Rows = append(resp.Rows, strings.Split(sc.Text(), "\t"))
		}
	default:
		return nil, fmt.Errorf("server: unknown status line %q", status)
	}
	return resp, nil
}

// stringsFromResultSet is the sending side as it was: every cell of a
// SQL result formatted into its own string before encode appended it.
func stringsFromResultSet(rs *sql.ResultSet) *Response {
	if rs.Message != "" {
		return &Response{Message: rs.Message}
	}
	out := &Response{Columns: rs.Columns, Rows: make([][]string, len(rs.Rows))}
	for i, row := range rs.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = strconv.FormatInt(v, 10)
		}
		out.Rows[i] = cells
	}
	return out
}

// announcedRows reads the row count a tabular payload announces, the
// way both decoders find it; ok is false for every other payload.
func announcedRows(payload []byte) (n int, ok bool) {
	s := string(payload)
	if strings.HasPrefix(s, "@") {
		if _, after, found := strings.Cut(s, " "); found {
			s = after
		}
	}
	s, _, _ = strings.Cut(s, "\n")
	s, found := strings.CutPrefix(strings.TrimSuffix(s, "\r"), "ok rows=")
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// sameDecode holds the decoder against the Scanner decoder on one
// payload: same error-ness, and the same response when there is one.
// The oracle sizes its row slice by the announced count, so it is only
// consulted when that count could be carried.
func sameDecode(t testing.TB, payload []byte) {
	t.Helper()
	got, gotErr := decodeResponse(payload)
	if n, tabular := announcedRows(payload); tabular && n > len(payload) {
		if gotErr == nil {
			t.Fatalf("%q: %d rows announced in %d bytes, decoded without error", payload, n, len(payload))
		}
		return
	}
	want, wantErr := decodeResponseScanner(payload)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%q: decoder says %v, Scanner decoder says %v", payload, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n decoded %+v\n Scanner %+v", payload, got, want)
	}
}

// decodeCases is the table TestDecodeMatchesScanner walks and the fuzz
// target starts from.
var decodeCases = []string{
	"",
	"\n",
	"\r\n",
	"err boom\n",
	"err boom",
	"err \n",
	"err",
	"ok msg=pong\n",
	"ok msg=\n",
	"ok msg=two\nlines\n",
	"ok rows=0\ncount(*)\n",
	"ok rows=0\ncount(*)",
	"ok rows=0\n",
	"ok rows=0\n\n",
	"ok rows=0",
	"ok rows=1\ncount(*)\n42\n",
	"ok rows=1\ncount(*)\n42",
	"ok rows=2\r\na\tb\r\n1\t2\r\n3\t4\r\n",
	"ok rows=2\na\tb\n1\t2\r\r\n3\t4\r",
	"ok rows=3\na\tb\n\t\n\n\t\t\n",
	"ok rows=2\na\tb\n1\t2\t3\n4\n",
	"ok rows=3\na\n1\n2\n",
	"ok rows=1\na\n1\n2\n3\n",
	"ok rows=1\na\n1\ntrailing",
	"ok rows=-1\na\n",
	"ok rows=x\na\n",
	"ok rows=\na\n",
	"ok rows= 1\na\n1\n",
	"ok rows=1 \na\n1\n",
	"ok rows=+1\na\n1\n",
	"ok rows=01\na\n1\n",
	"ok rows=9223372036854775808\na\n",
	"ok rows=4611686018427387904\nc\n",
	"ok rows=200000000\nc\n",
	"ok rows=3\nc\n\n\n",
	"ok rows=4\nc\n\n\n",
	"ok rows=2\nc\n\r\n\r",
	"ok\n",
	"okay rows=1\n",
	"nonsense",
	"@7 ok msg=hi\n",
	"@18446744073709551615 ok rows=1\nc\n5\n",
	"@18446744073709551616 ok msg=hi\n",
	"@7 err x\n",
	"@7 ",
	"@7",
	"@ ok msg=hi\n",
	"@abc ok msg=hi\n",
	"@-1 ok msg=hi\n",
	"@7  ok msg=hi\n",
	"@7 @8 ok msg=hi\n",
	" @7 ok msg=hi\n",
}

func TestDecodeMatchesScanner(t *testing.T) {
	for _, c := range decodeCases {
		sameDecode(t, []byte(c))
	}
	// What the rules mean, stated once outside the oracle: "\n" ends a
	// line, one trailing "\r" goes with it, the last line needs no
	// terminator, a row is as wide as its own tabs say, and bytes after
	// the announced rows are ignored.
	resp, err := decodeResponse([]byte("@9 ok rows=3\r\na\tb\r\n1\t\r\n\r\n2\t3\t4\r\r\nignored"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Response{
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", ""}, {""}, {"2", "3", "4\r"}},
		Seq:     9, HasSeq: true,
	}
	if !reflect.DeepEqual(resp, want) {
		t.Fatalf("decoded %+v, want %+v", resp, want)
	}
	// The rows share one cell slice; a caller that grows one row must not
	// write into the next.
	resp.Rows[0] = append(resp.Rows[0], "x")
	if resp.Rows[1][0] != "" {
		t.Fatalf("appending to row 0 overwrote row 1: %q", resp.Rows[1])
	}
}

// allocatedBytes reports the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what decoding a payload may allocate: the string
// copy, at most one 16-byte cell header per tab and per row, one
// 24-byte row header per row, and a row is at least one byte — a
// constant times the payload, whatever count the payload announces.
func decodeAllocBound(payload []byte) uint64 { return 80*uint64(len(payload)) + 16<<10 }

// TestDecodeRefusesImpossibleRowCount is the client's side of "refuse
// loudly": a frame announcing more rows than it has bytes used to size
// a slice by the announcement — 2^62 panicked the client (makeslice:
// cap out of range), 2·10^8 allocated 4.8 GB before reporting the rows
// missing.
func TestDecodeRefusesImpossibleRowCount(t *testing.T) {
	for _, payload := range []string{
		"ok rows=4611686018427387904\nc\n",
		"@3 ok rows=200000000\nc\n",
		"ok rows=4\nc\n1\n2\n3", // one more than the bytes could carry
	} {
		var err error
		got := allocatedBytes(func() { _, err = decodeResponse([]byte(payload)) })
		if err == nil || !strings.Contains(err.Error(), "announced") {
			t.Fatalf("%q: error %v, want the announced count refused", payload, err)
		}
		if limit := decodeAllocBound([]byte(payload)); got > limit {
			t.Fatalf("%q: refusing allocated %d bytes, limit %d", payload, got, limit)
		}
	}
	// The bound is exact: as many rows as bytes is a legal frame.
	resp, err := decodeResponse([]byte("ok rows=3\nc\n\n\n\n"))
	if err != nil || len(resp.Rows) != 3 {
		t.Fatalf("three empty rows in three bytes: %+v, %v", resp, err)
	}
}

// generatedResponse derives a response from a seed: every form, with
// cells no line rule can touch.
func generatedResponse(seed int64) *Response {
	rng := rand.New(rand.NewSource(seed))
	word := func() string {
		const alphabet = "abcxyz019 -_*().=@"
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	r := &Response{}
	if rng.Intn(2) == 0 {
		r.Seq, r.HasSeq = rng.Uint64(), true
	}
	switch rng.Intn(4) {
	case 0:
		r.Err = "e" + word()
	case 1:
		r.Message = "m" + word()
	default:
		r.Columns = make([]string, 1+rng.Intn(4))
		for i := range r.Columns {
			r.Columns[i] = word()
		}
		r.Rows = make([][]string, rng.Intn(9))
		for i := range r.Rows {
			r.Rows[i] = make([]string, 1+rng.Intn(4))
			for j := range r.Rows[i] {
				r.Rows[i][j] = word()
			}
		}
	}
	return r
}

// FuzzDecodeResponse: on any payload the decoder does not panic, stays
// inside its allocation bound and agrees with the Scanner decoder; and
// a response derived from the same bytes survives encode → decode.
func FuzzDecodeResponse(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if got, limit := allocatedBytes(func() { decodeResponse(payload) }), decodeAllocBound(payload); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(payload), got, limit)
		}
		sameDecode(t, payload)

		h := fnv.New64a()
		h.Write(payload)
		want := generatedResponse(int64(h.Sum64()))
		got, err := decodeResponse(want.encode(nil))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode(encode(%+v)) = %+v", want, got)
		}
	})
}

// TestEncodeIntsMatchesStrings: a SQL result rendered from its integers
// is, byte for byte, what the string matrix rendered.
func TestEncodeIntsMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	results := []*sql.ResultSet{
		{Message: "inserted 3 rows into t"},
		{Columns: []string{"count(*)"}, Rows: [][]int64{{0}}},
		{Columns: []string{"a", "b"}, Rows: [][]int64{{math.MinInt64, math.MaxInt64}, {-1, 1}, {0, -0}}},
		{Columns: []string{"a", "b"}},                     // zero rows, nil
		{Columns: []string{"a", "b"}, Rows: [][]int64{}},  // zero rows, empty
		{Columns: []string{}, Rows: [][]int64{{}, {}}},    // zero columns
		{Columns: nil, Rows: nil},                         // nothing at all
		{Columns: []string{"a"}, Rows: [][]int64{{1, 2}}}, // wider than its header
	}
	big := &sql.ResultSet{Columns: []string{"c0", "c1", "c2"}, Rows: make([][]int64, 1000)}
	for i := range big.Rows {
		big.Rows[i] = []int64{rng.Int63() - rng.Int63(), rng.Int63n(100), int64(i)}
	}
	results = append(results, big)
	for _, rs := range results {
		for _, req := range []wireReq{{}, {seq: 0, tagged: true}, {seq: math.MaxUint64, tagged: true}} {
			got := encodeReply(nil, req, fromResult(sql.Result{Set: rs}))
			old := stringsFromResultSet(rs)
			old.Seq, old.HasSeq = req.seq, req.tagged
			if want := old.encode(nil); !bytes.Equal(got, want) {
				t.Fatalf("result %+v, request %+v:\n ints    %q\n strings %q", rs, req, got, want)
			}
		}
	}
}

// TestOverLimitResultAnswersErr: a result that renders past MaxFrame
// used to reach writeFrame, whose refusal made handle drop the
// connection — the client saw EOF and no reason. The reply is now an
// error frame carrying the request's tag, and the window goes on.
func TestOverLimitResultAnswersErr(t *testing.T) {
	wide := make([]int64, MaxFrame/20) // 21 bytes a cell
	for i := range wide {
		wide[i] = math.MinInt64
	}
	huge := &sql.ResultSet{Columns: []string{"c"}, Rows: [][]int64{wide}}
	window := []struct {
		req  wireReq
		resp *Response
	}{
		{wireReq{seq: 41, tagged: true}, fromResult(sql.Result{Set: huge})},
		{wireReq{seq: 42, tagged: true}, fromResult(sql.Result{Set: &sql.ResultSet{Columns: []string{"count(*)"}, Rows: [][]int64{{7}}}})},
		{wireReq{}, fromResult(sql.Result{Set: huge})},
	}
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	var buf []byte
	for _, w := range window {
		buf = encodeReply(buf, w.req, w.resp)
		if err := writeFrame(bw, buf); err != nil {
			t.Fatalf("reply to %+v would close the connection: %v", w.req, err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&wire)
	var frame []byte
	for i, w := range window {
		var err error
		if frame, err = readFrame(br, frame); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		resp, err := decodeResponse(frame)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if resp.Seq != w.req.seq || resp.HasSeq != w.req.tagged {
			t.Fatalf("reply %d carries tag (%d, %v), request had (%d, %v)", i, resp.Seq, resp.HasSeq, w.req.seq, w.req.tagged)
		}
		if i == 1 {
			if n, err := resp.Int64(0, 0); err != nil || n != 7 {
				t.Fatalf("the request after the over-limit one answered %+v", resp)
			}
			continue
		}
		size := len("ok rows=1\nc\n") + 21*len(wide)
		if w.req.tagged {
			size += len("@41 ")
		}
		if want := fmt.Sprintf("result of %d bytes exceeds the 16 MiB frame limit; add LIMIT", size); resp.Err != want {
			t.Fatalf("reply %d: err %q, want %q", i, resp.Err, want)
		}
	}
}
