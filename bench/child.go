package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"crackdb/internal/server"
)

// workspace is the harness's scratch area: <repo>/.bench_build holds the
// built server binary (reused across runs; go's build cache makes the
// rebuild check cheap) and one run-* directory per process for data
// dirs, removed on every exit path together with any live child.
type workspace struct {
	root string // the crackdb module's directory
	bin  string // built cracksrv
	dir  string // this run's scratch directory

	mu       sync.Mutex
	children map[*child]struct{}
}

// newWorkspace locates the crackdb module, builds ./cmd/cracksrv and
// creates the run directory. Compilation happens here, before any
// set-up clock starts.
func newWorkspace() (*workspace, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(build, "cracksrv")
	if msg, err := exec.Command("go", "build", "-o", bin, "crackdb/cmd/cracksrv").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cracksrv: %v\n%s", err, msg)
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &workspace{root: root, bin: bin, dir: dir, children: map[*child]struct{}{}}, nil
}

// moduleRoot is the directory of the crackdb module this module's
// go.mod points at: the repository root.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}", "crackdb").Output()
	if err != nil {
		return "", fmt.Errorf("locating the crackdb module (run from bench/, or with go run -C bench .): %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// close kills every child still running and removes the run directory.
// Safe to call more than once and from the signal handler.
func (w *workspace) close() {
	w.mu.Lock()
	live := make([]*child, 0, len(w.children))
	for c := range w.children {
		live = append(live, c)
	}
	w.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
	os.RemoveAll(w.dir)
}

// tempDir makes a fresh directory under the run directory.
func (w *workspace) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(w.dir, prefix+"-")
}

// child is one cracksrv process the harness started.
type child struct {
	w      *workspace
	cmd    *exec.Cmd
	addr   string
	stderr *tailBuffer
	waited chan struct{} // closed once cmd.Wait returned
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it, so a race with another process is
// possible; start retries on a failed boot.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// bootTimeout bounds how long a child may take to answer its first
// /ping (recovery of a 1M-row data dir included).
const bootTimeout = 60 * time.Second

// start launches cracksrv with the given flags on a free port and
// returns once it answers /ping. On a failed boot the error carries the
// tail of the server's stderr.
func (w *workspace) start(args ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c := &child{w: w, addr: addr, stderr: &tailBuffer{max: 4096}, waited: make(chan struct{})}
		c.cmd = exec.Command(w.bin, append([]string{"-addr", addr}, args...)...)
		c.cmd.Stderr = c.stderr
		if err := c.cmd.Start(); err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.children[c] = struct{}{}
		w.mu.Unlock()
		go func() {
			c.cmd.Wait()
			close(c.waited)
		}()
		if lastErr = c.awaitReady(); lastErr == nil {
			return c, nil
		}
		c.kill()
		lastErr = fmt.Errorf("cracksrv %s did not come up: %w\n--- server stderr ---\n%s",
			strings.Join(args, " "), lastErr, c.stderr.String())
	}
	return nil, lastErr
}

func (c *child) awaitReady() error {
	deadline := time.Now().Add(bootTimeout)
	for {
		select {
		case <-c.waited:
			return fmt.Errorf("process exited during boot")
		default:
		}
		if cl, err := server.Dial(c.addr); err == nil {
			_, err = cl.Exec("/ping")
			cl.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no /ping answer within %v", bootTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the child and reaps it. Idempotent.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.waited
	c.w.mu.Lock()
	delete(c.w.children, c)
	c.w.mu.Unlock()
}

// stop asks for a clean shutdown (SIGINT: drain, close the WAL, exit 0)
// and falls back to kill.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-c.waited:
	case <-time.After(10 * time.Second):
	}
	c.kill()
}

// procStats reads the live child's accumulated CPU time and peak
// resident set from /proc. It must run before the child is reaped.
func (c *child) procStats() (cpuMS, peakRSSMB float64, err error) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime fields 14 and 15, in clock ticks.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("unparsable /proc/%s/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on every Linux port Go supports
	cpuMS = (utime + stime) * 1000 / ticksPerSecond
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			peakRSSMB = kb / 1024
		}
	}
	return cpuMS, peakRSSMB, nil
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
