package algebra

import (
	"bufio"
	"context"
	"hash/crc32"
	"io"
	"strconv"

	"crackdb/internal/relation"
)

// The three result-delivery modes of Figure 1: (a) materialization into
// a temporary table, (b) sending the output to the front-end, (c) just
// counting the qualifying tuples.

// Count consumes the iterator and returns the tuple count — Figure 1(c),
// the cheapest delivery mode. It checks ctx per delivered tuple, so a
// plan that has gone quadratic (Figure 9's nested-loop fallback) stops
// at its deadline with ctx's error and the count so far.
func Count(ctx context.Context, it Iterator) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	defer it.Close()
	n := 0
	for {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		_, ok, err := it.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// Print streams the result to a front-end writer as tab-separated text —
// Figure 1(b). It returns the tuple count.
func Print(it Iterator, w io.Writer) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	defer it.Close()
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	n := 0
	buf := make([]byte, 0, 64)
	for {
		row, ok, err := it.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, bw.Flush()
		}
		buf = buf[:0]
		for j, v := range row {
			if j > 0 {
				buf = append(buf, '\t')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return n, err
		}
		n++
	}
}

// Materialize stores the result into a new table — Figure 1(a), the most
// expensive delivery mode. Under a TxnMaterialize profile every tuple is
// also appended to a checksummed WAL image, charging the transactional
// overhead the paper measures ("storing the result of a query in a new
// system table is expensive, as the DBMS has to ensure transaction
// behavior").
func Materialize(it Iterator, name string, prof Profile) (*relation.Table, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()

	out := relation.New(name, it.Schema()...)
	var wal []byte
	crc := crc32.NewIEEE()
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
		if prof.TxnMaterialize {
			// WAL image: the row bytes plus a running checksum.
			for _, v := range row {
				wal = append(wal,
					byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
					byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
			}
			if len(wal) > 1<<16 {
				if _, err := crc.Write(wal); err != nil {
					return nil, err
				}
				wal = wal[:0] // "flushed" WAL segment
			}
		}
	}
	if prof.TxnMaterialize {
		if _, err := crc.Write(wal); err != nil {
			return nil, err
		}
		_ = crc.Sum32()
	}
	return out, nil
}
