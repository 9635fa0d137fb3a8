package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/distributed-predicates/gpd/internal/stream"
)

// buildServer compiles cmd/gpdserver into .bench_build/ of the checkout.
// With a warm build cache this is a staleness check, so repeating it per
// set-up is cheap.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "gpdserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gpdserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gpdserver: %v\n%s", err, out)
	}
	return bin, nil
}

// server is the gpdserver child process, observed from outside only: its
// log lines, its stats listener, /proc and its exit status.
type server struct {
	cmd   *exec.Cmd
	addr  string // stream protocol listener
	stats string // http://host:port of the stats listener
	http  *http.Client

	done    chan struct{} // closed once the child has been reaped
	waitErr error
	logTail *tail
}

// tail keeps the child's last log lines for error messages.
type tail struct {
	mu    sync.Mutex
	lines []string
}

func (t *tail) add(line string) {
	t.mu.Lock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 8 {
		t.lines = t.lines[1:]
	}
	t.mu.Unlock()
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// startServer launches the binary with every default left alone — all
// instrumentation on — on two ephemeral loopback ports, which it reads
// back from the child's JSON log.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-stats", "127.0.0.1:0", "-log-format", "json")
	// The child must not outlive this process on any exit path, including
	// ones that skip deferred calls.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gpdserver: %w", err)
	}
	s := &server{cmd: cmd, http: &http.Client{Timeout: 10 * time.Second}, done: make(chan struct{}), logTail: &tail{}}
	type ports struct{ addr, stats string }
	found := make(chan ports, 1)
	go func() {
		// Reads to EOF so the child never blocks on a full pipe; Wait runs
		// only after the pipe is drained, as os/exec requires.
		var p ports
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			s.logTail.add(sc.Text())
			var line struct{ Msg, Addr, URL string }
			if json.Unmarshal(sc.Bytes(), &line) != nil {
				continue
			}
			switch line.Msg {
			case "listening":
				p.addr = line.Addr
			case "metrics":
				p.stats = strings.TrimSuffix(line.URL, "/metrics")
				found <- p
			}
		}
		s.waitErr = cmd.Wait()
		if stderr.Len() > 0 {
			s.logTail.add(strings.TrimSpace(stderr.String()))
		}
		close(s.done)
	}()
	select {
	case p := <-found:
		s.addr, s.stats = p.addr, p.stats
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("gpdserver exited during start-up: %v\n%s", s.waitErr, s.logTail)
	case <-time.After(15 * time.Second):
		s.kill()
		return nil, fmt.Errorf("gpdserver did not report its listeners within 15s\n%s", s.logTail)
	}
}

// alive returns an error describing the exit if the child is gone.
func (s *server) alive() error {
	select {
	case <-s.done:
		return fmt.Errorf("gpdserver died mid-run: %v\n%s", s.waitErr, s.logTail)
	default:
		return nil
	}
}

// kill stops the child immediately and waits for it to be reaped.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// stop shuts the child down gracefully and returns its peak resident set
// size from the exit status's rusage, in KiB.
func (s *server) stop() (maxRSSKB int64, err error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.kill()
		return 0, errors.New("gpdserver ignored SIGTERM for 10s")
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for gpdserver")
	}
	return ru.Maxrss, nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux platform Go supports.
const clockTick = 100

// cpu reads the child's user+system CPU time so far from /proc.
func (s *server) cpu() (time.Duration, error) {
	pid := s.cmd.Process.Pid
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.http.Get(s.stats + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape reads /metrics into name -> value, summing labelled series of
// one name (per-shard counters become engine totals).
func (s *server) scrape() (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		out[name] += v
	}
	return out, nil
}

// snapshot reads the engine snapshot from /debug/vars.
func (s *server) snapshot() (stream.Snapshot, error) {
	body, err := s.get("/debug/vars")
	if err != nil {
		return stream.Snapshot{}, err
	}
	var doc struct {
		Gpdserver stream.Snapshot `json:"gpdserver"`
	}
	err = json.Unmarshal(body, &doc)
	return doc.Gpdserver, err
}

// bytesIn sums the wire bytes the cost ledger attributed to sessions.
func (s *server) bytesIn() (int64, error) {
	body, err := s.get("/debug/tenants")
	if err != nil {
		return 0, err
	}
	var doc struct {
		Scopes []struct {
			BytesIn int64 `json:"bytes_in"`
		} `json:"scopes"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, err
	}
	var n int64
	for _, sc := range doc.Scopes {
		n += sc.BytesIn
	}
	return n, nil
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
