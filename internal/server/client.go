package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"time"
)

// Client is one connection to a cracksrv instance. It is not safe for
// concurrent use — each worker goroutine dials its own connection. A
// single client may overlap many requests on its connection through
// Pipeline or DoBatch.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	buf  []byte
	seq  uint64 // last pipeline sequence tag handed out
	tag  []byte // scratch for tagged request payloads
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 1<<16),
		w:    bufio.NewWriterSize(conn, 1<<16),
	}
}

// DialTimeout is Dial with a connect timeout, retrying until the
// deadline — a follower heartbeats to its primary before it listens.
// Each attempt is bounded by the time left, so a connect the peer never
// completes (a full accept queue drops the SYN) cannot outlast it.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, max(time.Until(deadline), time.Millisecond))
		if err == nil {
			return newClient(conn), nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server: dial %s: %w", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Do sends one request and decodes the reply. A Response with Err set
// is a successful round trip — the statement failed, not the transport.
func (c *Client) Do(cmd string) (*Response, error) {
	if err := writeFrame(c.w, []byte(cmd)); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	payload, err := readFrame(c.r, c.buf)
	if err != nil {
		return nil, err
	}
	c.buf = payload
	return decodeResponse(payload)
}

// Exec is Do folding statement failure into the error.
func (c *Client) Exec(cmd string) (*Response, error) {
	resp, err := c.Do(cmd)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("server: %s", resp.Err)
	}
	return resp, nil
}

// Count executes a statement expected to return a single integer cell
// (e.g. SELECT COUNT(*) ...).
func (c *Client) Count(stmt string) (int64, error) {
	resp, err := c.Exec(stmt)
	if err != nil {
		return 0, err
	}
	return resp.Int64(0, 0)
}

// Pipeline starts a pipelining session: Send streams requests without
// waiting (buffered until Flush), Recv decodes the next response and
// verifies its sequence tag matches the oldest in-flight request. One
// pipeline at a time per client; interleave Send and Recv freely as
// long as every Send is eventually matched by a Recv.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Pipeline is an explicit pipelining session on one client connection.
type Pipeline struct {
	c    *Client
	sent []uint64 // FIFO of in-flight sequence tags
	head int
}

// Send streams one tagged request into the connection's write buffer.
// Nothing reaches the server until Flush (or the buffer overflows).
func (p *Pipeline) Send(cmd string) error {
	c := p.c
	c.seq++
	c.tag = append(c.tag[:0], '@')
	c.tag = strconv.AppendUint(c.tag, c.seq, 10)
	c.tag = append(c.tag, ' ')
	c.tag = append(c.tag, cmd...)
	if err := writeFrame(c.w, c.tag); err != nil {
		return err
	}
	p.sent = append(p.sent, c.seq)
	return nil
}

// Flush pushes all buffered requests to the server.
func (p *Pipeline) Flush() error { return p.c.w.Flush() }

// Recv reads the next response and checks it answers the oldest
// in-flight request — the ordering guarantee the sequence tags exist to
// make verifiable.
func (p *Pipeline) Recv() (*Response, error) {
	if p.head >= len(p.sent) {
		return nil, fmt.Errorf("server: pipeline Recv with no request in flight")
	}
	payload, err := readFrame(p.c.r, p.c.buf)
	if err != nil {
		return nil, err
	}
	p.c.buf = payload
	resp, err := decodeResponse(payload)
	if err != nil {
		return nil, err
	}
	want := p.sent[p.head]
	p.head++
	if p.head == len(p.sent) {
		p.sent, p.head = p.sent[:0], 0
	}
	if !resp.HasSeq || resp.Seq != want {
		return nil, fmt.Errorf("server: pipelined response out of order: got seq %d (tagged %v), want %d",
			resp.Seq, resp.HasSeq, want)
	}
	return resp, nil
}

// DoBatch pipelines a batch of statements: all requests are streamed
// with one flush, then the responses are collected in order. The error
// is transport-level only — per-statement failures come back in the
// matching Response's Err, like Do.
func (c *Client) DoBatch(cmds []string) ([]*Response, error) {
	p := c.Pipeline()
	for _, cmd := range cmds {
		if err := p.Send(cmd); err != nil {
			return nil, err
		}
	}
	if err := p.Flush(); err != nil {
		return nil, err
	}
	out := make([]*Response, len(cmds))
	for i := range out {
		resp, err := p.Recv()
		if err != nil {
			return nil, err
		}
		out[i] = resp
	}
	return out, nil
}

// Close says goodbye and drops the connection.
func (c *Client) Close() error {
	c.Do("/quit") // best effort; the server closes after replying
	return c.conn.Close()
}
