package crackdb

// Hooks for the package's tests: no program writes a result as text, so
// only the tests stream one.

import (
	"io"
	"strconv"
)

// WriteTo streams the qualifying values to a front-end writer as decimal
// text, one per line.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var total int64
	buf := make([]byte, 0, 1<<12)
	for _, v := range r.vals {
		buf = strconv.AppendInt(buf, v, 10)
		buf = append(buf, '\n')
		if len(buf) >= 1<<12-32 {
			n, err := w.Write(buf)
			total += int64(n)
			if err != nil {
				return total, err
			}
			buf = buf[:0]
		}
	}
	n, err := w.Write(buf)
	total += int64(n)
	return total, err
}
