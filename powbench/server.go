package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running powserver process.
type server struct {
	cmd        *exec.Cmd
	addr       string // serving listener
	admin      string // admin listener (/batch, /metrics)
	token      string
	logPath    string
	startup    time.Duration // wall time from exec to the first 200 from /healthz
	startupCPU time.Duration // the server's CPU time over the same span
	exited     chan error    // receives the process's exit; nil once stopped
}

// deployment is everything powserver is started with.
type deployment struct {
	bin, dir    string // binaries; the run's scratch directory
	feed, model string
	spec        string // spec text, written to dir/deploy.spec
	keyHex      string
	token       string
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// start execs powserver and waits until /healthz answers 200. The returned
// server must be stopped.
func (d *deployment) start(n int) (*server, error) {
	specPath := filepath.Join(d.dir, "deploy.spec")
	if err := os.WriteFile(specPath, []byte(d.spec), 0o644); err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	admin, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, admin: admin, token: d.token,
		logPath: filepath.Join(d.dir, fmt.Sprintf("powserver-%d.log", n))}
	logf, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	s.cmd = exec.Command(filepath.Join(d.bin, "powserver"),
		"-addr", addr, "-admin", admin, "-admin-token", d.token,
		"-spec", specPath, "-feed", d.feed, "-model", d.model, "-key", d.keyHex,
		"-trust-ip-header", "X-Real-IP")
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec powserver: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- s.cmd.Wait() }()
	s.exited = exited
	live.Lock()
	live.servers[s] = struct{}{}
	live.Unlock()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		select {
		case err := <-exited:
			exited <- err
			s.stop()
			return nil, fmt.Errorf("powserver exited during start-up (%v): %s", err, tail(s.logPath))
		default:
		}
		if resp, err := client.Get("http://" + addr + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.startup = time.Since(t0)
				if s.startupCPU, err = procCPU(s.cmd.Process.Pid); err != nil {
					s.stop()
					return nil, fmt.Errorf("read powserver CPU after start-up: %w", err)
				}
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, fmt.Errorf("powserver not healthy after 30s: %s", tail(s.logPath))
		}
		nanosleep(200 * time.Microsecond)
	}
	return s, nil
}

// live holds the servers started and not yet stopped, so that a signal
// can stop them before the benchmark exits.
var live = struct {
	sync.Mutex
	servers map[*server]struct{}
}{servers: map[*server]struct{}{}}

// stop terminates the server and waits for it to exit. It is safe to call
// more than once and on a nil server.
func (s *server) stop() {
	if s == nil {
		return
	}
	live.Lock()
	defer live.Unlock()
	if _, ok := live.servers[s]; !ok {
		return
	}
	delete(live.servers, s)
	s.kill()
}

func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// stopAll stops every live server.
func stopAll() {
	live.Lock()
	defer live.Unlock()
	for s := range live.servers {
		delete(live.servers, s)
		s.kill()
	}
}

// tail returns the last lines of a log, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// procCPU reports the CPU time consumed so far by pid's threads, summed
// from their schedstat run times, which count nanoseconds; /proc/<pid>/stat
// counts 10 ms ticks, too coarse for a few seconds of load. Go threads
// live as long as the process, so no time is lost to exited threads.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited after the directory was read
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("empty schedstat for thread %s of %d", t.Name(), pid)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat for thread %s of %d: %w", t.Name(), pid, err)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// procPeakRSS reports the peak resident set size of pid in bytes.
func procPeakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// counters is one /metrics scrape: series name plus pipeline label to value.
type counters map[string]float64

// scrape reads the admin listener's Prometheus exposition and keeps the
// per-pipeline serving counters and latency sums.
func (s *server) scrape() (counters, error) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + s.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		name, rest, ok := strings.Cut(line, "{")
		if !ok {
			continue
		}
		labels, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		key := strings.TrimPrefix(name, "aipow_")
		for _, l := range strings.Split(labels, ",") {
			k, lv, _ := strings.Cut(l, "=")
			if k == "pipeline" || k == "stage" {
				key += "/" + strings.Trim(lv, `"`)
			}
		}
		out[key] = v
	}
	return out, sc.Err()
}

// delta returns after-before for one series.
func delta(before, after counters, key string) float64 { return after[key] - before[key] }
