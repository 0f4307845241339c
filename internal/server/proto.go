// Package server puts a network front on the cracking store: a
// length-prefixed wire protocol (4-byte big-endian frame length, UTF-8
// text payload) carrying one request per frame — a SQL statement or a
// /meta command — and one response frame back. The text-in-frames shape
// keeps the protocol dependency-free and debuggable (`nc` plus a hex
// dump reads it) while the explicit length makes framing robust for
// multi-line tabular results and concurrent pipelined clients.
//
// Response payload grammar (first line is the status):
//
//	ok rows=<n>\n<tab-separated header>\n<tab-separated row>...
//	ok msg=<free text>\n
//	err <free text>\n
//
// A result whose payload would pass MaxFrame is not sent; its request is
// answered
//
//	err result of <n> bytes exceeds the 16 MiB frame limit; add LIMIT\n
//
// and the connection goes on serving.
//
// Pipelining: a client may stream many request frames without waiting.
// A request may carry a sequence tag — the payload prefix "@<seq> " —
// and the server echoes the same tag as the response payload prefix, so
// a pipelined client can verify that responses arrive in request order.
// Untagged requests get untagged responses; old clients and servers
// interoperate unchanged.
package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// MaxFrame bounds a single request or response frame. Results larger
// than this must be paginated with LIMIT.
const MaxFrame = 16 << 20

// framePool recycles frame buffers across connections: a handler (or
// pipeline) takes its request and response buffers at start and returns
// them at exit, so the per-message fast paths — readFrame into a buffer
// that is already large enough, encode into a reused buffer — run
// allocation-free regardless of how many connections churn.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1<<12)
		return &b
	},
}

// getFrameBuf takes a frame buffer from the pool.
func getFrameBuf() []byte { return (*framePool.Get().(*[]byte))[:0] }

// putFrameBuf returns a frame buffer to the pool. The buffer may have
// been reallocated (grown) since getFrameBuf — the grown capacity is
// what makes the pool worth having.
func putFrameBuf(b []byte) { framePool.Put(&b) }

// writeFrame writes one length-prefixed frame. For a buffered writer —
// every production path — the header goes through the writer's own
// buffer byte by byte, keeping the fast path allocation-free (a stack
// header array would escape through the io.Writer interface).
func writeFrame(w io.Writer, payload []byte) error {
	n := len(payload)
	if n > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	if bw, ok := w.(*bufio.Writer); ok {
		bw.WriteByte(byte(n >> 24))
		bw.WriteByte(byte(n >> 16))
		bw.WriteByte(byte(n >> 8))
		bw.WriteByte(byte(n))
		// bufio errors are sticky: a failure in the header bytes above
		// resurfaces here.
		_, err := bw.Write(payload)
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame, reusing buf when it is
// large enough. The buffered-reader fast path pulls the header byte by
// byte out of the reader's own buffer for the same reason writeFrame
// does: a stack header array escapes through the io.Reader interface.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var n uint32
	if br, ok := r.(*bufio.Reader); ok {
		for i := 0; i < 4; i++ {
			b, err := br.ReadByte()
			if err != nil {
				if i > 0 && err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
			n = n<<8 | uint32(b)
		}
	} else {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		n = binary.BigEndian.Uint32(hdr[:])
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("server: peer announced %d-byte frame, limit %d", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readBufferedFrame reads one frame only if it is already complete in
// the reader's buffer — the non-blocking drain the pipelined server
// uses to widen a connection's service window without ever stalling on
// a slow or non-pipelining client. ok reports whether a frame was
// consumed; a partial frame (header or body still in flight) leaves the
// reader untouched.
func readBufferedFrame(br *bufio.Reader, buf []byte) (payload []byte, ok bool, err error) {
	if br.Buffered() < 4 {
		return buf, false, nil
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return buf, false, nil
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return buf, false, fmt.Errorf("server: peer announced %d-byte frame, limit %d", n, MaxFrame)
	}
	if br.Buffered() < 4+int(n) {
		return buf, false, nil
	}
	payload, err = readFrame(br, buf)
	if err != nil {
		return buf, false, err
	}
	return payload, true, nil
}

// Response is one decoded server reply. Exactly one of Err, Message or
// the tabular (Columns, Rows) forms is populated; cells are decimal
// strings for SQL results and free text for meta commands. Seq carries
// the request's pipeline sequence tag when HasSeq is set.
type Response struct {
	Err     string
	Message string
	Columns []string
	Rows    [][]string
	Seq     uint64
	HasSeq  bool

	// ints is the sending side's form of a SQL result: the engine's rows,
	// rendered as decimal text by encode without passing through strings.
	// A response carries Rows or ints, never both; decoding fills Rows.
	ints [][]int64
}

// Int64 parses one cell as a decimal integer.
func (r *Response) Int64(row, col int) (int64, error) {
	if row >= len(r.Rows) || col >= len(r.Rows[row]) {
		return 0, fmt.Errorf("server: no cell (%d,%d) in %dx%d result", row, col, len(r.Rows), len(r.Columns))
	}
	return strconv.ParseInt(r.Rows[row][col], 10, 64)
}

// cells returns a copy of r whose SQL rows are decimal cells, as a
// decoded reply carries them.
func (r *Response) cells() *Response {
	out := *r
	if r.ints != nil {
		out.Rows, out.ints = make([][]string, len(r.ints)), nil
		for i, row := range r.ints {
			out.Rows[i] = make([]string, len(row))
			for j, v := range row {
				out.Rows[i][j] = strconv.FormatInt(v, 10)
			}
		}
	}
	return &out
}

// encode renders the response payload.
func (r *Response) encode(buf []byte) []byte {
	b := buf[:0]
	if r.HasSeq {
		b = append(b, '@')
		b = strconv.AppendUint(b, r.Seq, 10)
		b = append(b, ' ')
	}
	switch {
	case r.Err != "":
		b = append(b, "err "...)
		b = append(b, sanitize(r.Err)...)
		b = append(b, '\n')
	case r.Message != "":
		b = append(b, "ok msg="...)
		b = append(b, sanitize(r.Message)...)
		b = append(b, '\n')
	default:
		b = append(b, "ok rows="...)
		b = strconv.AppendInt(b, int64(len(r.Rows)+len(r.ints)), 10)
		b = append(b, '\n')
		b = appendTabLine(b, r.Columns)
		for _, row := range r.Rows {
			b = appendTabLine(b, row)
		}
		for _, row := range r.ints {
			for i, v := range row {
				if i > 0 {
					b = append(b, '\t')
				}
				b = strconv.AppendInt(b, v, 10)
			}
			b = append(b, '\n')
		}
	}
	return b
}

// encodeReply renders resp as the answer to req, echoing its sequence
// tag. A rendering past MaxFrame — which writeFrame would refuse,
// leaving the client with a closed connection and no reason — becomes
// the error reply saying so.
func encodeReply(buf []byte, req wireReq, resp *Response) []byte {
	resp.Seq, resp.HasSeq = req.seq, req.tagged
	buf = resp.encode(buf)
	if len(buf) > MaxFrame {
		over := Response{
			Err: fmt.Sprintf("result of %d bytes exceeds the %d MiB frame limit; add LIMIT", len(buf), MaxFrame>>20),
			Seq: req.seq, HasSeq: req.tagged,
		}
		// Into a fresh buffer: the connection's pooled one would otherwise
		// stay as large as the result it could not send.
		buf = over.encode(nil)
	}
	return buf
}

func appendTabLine(b []byte, cells []string) []byte {
	for i, c := range cells {
		if i > 0 {
			b = append(b, '\t')
		}
		b = append(b, c...)
	}
	return append(b, '\n')
}

// sanitize keeps status lines single-line.
func sanitize(s string) string {
	if strings.ContainsAny(s, "\n\r") {
		s = strings.NewReplacer("\n", " ", "\r", " ").Replace(s)
	}
	return s
}

// decodeResponse parses a response payload, splitting off the optional
// "@<seq> " pipeline tag first.
func decodeResponse(payload []byte) (*Response, error) {
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
	resp, err := decodeResponseBody(payload)
	if err != nil {
		return nil, err
	}
	resp.Seq, resp.HasSeq = seq, hasSeq
	return resp, nil
}

// cutLine splits the first line off s by bufio.ScanLines' rules: '\n'
// ends a line, one trailing '\r' is dropped from it, and a final line
// without terminator counts when it is not empty. ok is false when s
// holds no line.
func cutLine(s string) (line, rest string, ok bool) {
	if s == "" {
		return "", "", false
	}
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimSuffix(line, "\r"), rest, true
}

// decodeResponseBody parses the status line and body of a response.
// Every string of the response is cut from one copy of the payload, and
// the cells of all rows share one slice the rows are sub-sliced from, so
// a reply costs five allocations whatever its row count. The announced
// row count is checked against the bytes that could carry it before
// anything is sized by it.
func decodeResponseBody(payload []byte) (*Response, error) {
	status, rest, ok := cutLine(string(payload))
	if !ok {
		return nil, fmt.Errorf("server: empty response frame")
	}
	switch {
	case strings.HasPrefix(status, "err "):
		return &Response{Err: status[len("err "):]}, nil
	case strings.HasPrefix(status, "ok msg="):
		return &Response{Message: status[len("ok msg="):]}, nil
	case strings.HasPrefix(status, "ok rows="):
		n, err := strconv.Atoi(status[len("ok rows="):])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("server: bad row count in status %q", status)
		}
		header, rest, ok := cutLine(rest)
		if !ok {
			return nil, fmt.Errorf("server: tabular response missing header")
		}
		if n > len(rest) { // a row is at least its newline
			return nil, fmt.Errorf("server: response announced %d rows, at most %d fit in the rest of the frame", n, len(rest))
		}
		resp := &Response{Columns: strings.Split(header, "\t"), Rows: make([][]string, n)}
		cells := make([]string, 0, strings.Count(rest, "\t")+n)
		for i := range resp.Rows {
			var line string
			if line, rest, ok = cutLine(rest); !ok {
				return nil, fmt.Errorf("server: response announced %d rows, carried %d", n, i)
			}
			first := len(cells)
			for more := true; more; {
				var cell string
				cell, line, more = strings.Cut(line, "\t")
				cells = append(cells, cell)
			}
			resp.Rows[i] = cells[first:len(cells):len(cells)]
		}
		return resp, nil
	default:
		return nil, fmt.Errorf("server: unknown status line %q", status)
	}
}
