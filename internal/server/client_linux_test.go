package server

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// stalledListener listens on loopback with a backlog of zero, never
// accepts, and fills its accept queue, so the kernel drops every further
// SYN and a connect to it stalls until the dialer gives up.
func stalledListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for i := 0; ; i++ {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return addr // the queue is full
		}
		t.Cleanup(func() { c.Close() })
		if i == 8 {
			t.Skip("the kernel kept accepting into a zero-backlog queue")
		}
	}
}

// TestDialTimeoutBoundsStalledConnect: DialTimeout returns by its
// deadline even when the peer never completes the handshake — a follower
// dials its primary through it at boot and on every reconnect.
func TestDialTimeoutBoundsStalledConnect(t *testing.T) {
	addr := stalledListener(t)
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		c, err := DialTimeout(addr, 300*time.Millisecond)
		if c != nil {
			c.conn.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dialed a listener whose accept queue is full")
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("DialTimeout(300ms) returned after %v", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DialTimeout(300ms) still connecting after 5 s")
	}
}
