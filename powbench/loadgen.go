package main

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the number of connections the generator opens: one per worker,
// never more than the two CPUs the server shares with it.
const conns = 2

// requestTimeout bounds one request; a request that exceeds it fails.
const requestTimeout = 5 * time.Second

// conn is one keep-alive HTTP/1.1 connection, used by one worker at a
// time. The request is written by hand and the reply parsed with
// http.ReadResponse, so a request costs the generator no goroutine
// hand-offs and little CPU next to the server it shares the machine with.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
	// dials counts the connections opened, so a reply owed on a
	// connection that has since closed is not read from its successor.
	dials int
}

// workerConns returns one connection per worker to addr.
func workerConns(addr string) [conns]*conn {
	var cs [conns]*conn
	for w := range cs {
		cs[w] = &conn{addr: addr}
	}
	return cs
}

// do sends one request and reads the whole reply. The reply body stays
// valid until the next call. hdrs alternates header names and values.
func (c *conn) do(method, path string, body []byte, hdrs ...string) (*http.Response, []byte, error) {
	s := c.send(method, path, body, hdrs...)
	return c.recv(s)
}

// sent is a request written to a connection whose reply is still owed.
type sent struct {
	dial int   // the connection it went out on
	err  error // the send's error
}

// send writes one request without waiting for its reply, so a worker can
// keep several requests in flight on its connection; net/http's server
// answers them in order. Each send is answered by one recv.
func (c *conn) send(method, path string, body []byte, hdrs ...string) sent {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return sent{c.dials, err}
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
		c.dials++
	}
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: powbench\r\n"...)
	for i := 0; i+1 < len(hdrs); i += 2 {
		b = append(b, hdrs[i]...)
		b = append(b, ": "...)
		b = append(b, hdrs[i+1]...)
		b = append(b, "\r\n"...)
	}
	if body != nil {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	c.req = b
	err := c.c.SetDeadline(time.Now().Add(requestTimeout))
	if err == nil {
		_, err = c.c.Write(b)
	}
	if err != nil {
		c.close()
	}
	return sent{c.dials, err}
}

// recv reads the reply to s, which must be the oldest request sent and not
// yet answered. The reply body stays valid until the next recv. A failed
// send or recv closes the connection, and the replies still owed on it
// fail too.
func (c *conn) recv(s sent) (*http.Response, []byte, error) {
	if s.err != nil {
		return nil, nil, s.err
	}
	if c.c == nil || s.dial != c.dials {
		return nil, nil, errConnLost
	}
	resp, err := c.readReply()
	if err != nil {
		c.close()
		return nil, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp, c.body.Bytes(), nil
}

var errConnLost = errors.New("connection closed before the reply")

func (c *conn) readReply() (*http.Response, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, err
}

// close closes the connection; the next request dials again.
func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// nanosleep blocks the calling thread. The runtime's timers wake about a
// millisecond late on small VMs; a direct nanosleep wakes within tens of
// microseconds, so the open-loop schedule holds at sub-millisecond spacing.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// phase is what the generator measured over one measured phase.
type phase struct {
	lat     []time.Duration // per operation (open loop) or per call (closed loop)
	at      []time.Duration // when each was due (open loop) or sent, from the phase start
	late    []time.Duration // send time minus due time, or closed-loop turnaround
	elapsed time.Duration   // first due time to last completion
	backlog int64           // most operations due but not yet started
	cpu     time.Duration   // generator CPU over the phase
	stolen  time.Duration   // time the host took from each CPU, on average
}

// runOpen sends n operations on a fixed schedule, one every interval, from
// conns workers sharing one queue. Latency is timed from each operation's
// due time, so a stall also charges the operations queued behind it.
func runOpen(n int, interval time.Duration, do func(worker, i int)) *phase {
	ph := &phase{lat: make([]time.Duration, n), at: make([]time.Duration, n), late: make([]time.Duration, n)}
	for i := range ph.at {
		ph.at[i] = time.Duration(i) * interval
	}
	var next, backlog atomic.Int64
	var lastDone [conns]time.Time
	cpu0 := selfCPU()
	start := time.Now().Add(time.Millisecond)
	steal0 := readSteal()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					nanosleep(d)
				}
				sentAt := time.Now()
				b := int64(sentAt.Sub(start)/interval) - int64(i)
				for cur := backlog.Load(); b > cur && !backlog.CompareAndSwap(cur, b); cur = backlog.Load() {
				}
				do(w, i)
				done := time.Now()
				ph.lat[i], ph.late[i] = done.Sub(due), sentAt.Sub(due)
				lastDone[w] = done
			}
		}()
	}
	wg.Wait()
	ph.cpu, ph.stolen = selfCPU()-cpu0, stealSince(steal0)
	last := lastDone[0]
	if lastDone[1].After(last) {
		last = lastDone[1]
	}
	ph.elapsed = last.Sub(start)
	ph.backlog = backlog.Load()
	return ph
}

// window is how many calls each closed-loop worker keeps in flight on its
// connection. With two, the server finds the next call waiting whenever it
// finishes one, so the CPUs stay busy and throughput does not hang on how
// fast the host wakes an idle CPU.
const window = 2

// runClosed keeps conns workers busy until d has passed: each keeps window
// calls in flight and sends the next as soon as a reply is in, as a proxy
// tier waiting for its decisions does. send(worker, slot, j) sends call j
// and recv(worker, slot) reads and checks the reply to the call sent from
// that slot; replies come back in the order sent. Latency is timed from
// the send, so it includes the wait behind the call ahead; late is the
// generator's own turnaround between a reply and the next send on that
// connection.
func runClosed(d time.Duration, send func(worker, slot int, j int64), recv func(worker, slot int)) *phase {
	var next atomic.Int64
	var lats, ats, lates [conns][]time.Duration
	var lastDone [conns]time.Time
	cpu0 := selfCPU()
	start := time.Now()
	until := start.Add(d)
	steal0 := readSteal()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sentAt [window]time.Time
			head, inFlight := 0, 0
			prev := start
			for {
				for inFlight < window && time.Now().Before(until) {
					slot := (head + inFlight) % window
					j := next.Add(1) - 1
					sentAt[slot] = time.Now()
					send(w, slot, j)
					lates[w] = append(lates[w], sentAt[slot].Sub(prev))
					inFlight++
				}
				if inFlight == 0 {
					break
				}
				recv(w, head)
				done := time.Now()
				lats[w] = append(lats[w], done.Sub(sentAt[head]))
				ats[w] = append(ats[w], sentAt[head].Sub(start))
				prev = done
				head, inFlight = (head+1)%window, inFlight-1
			}
			lastDone[w] = prev
		}()
	}
	wg.Wait()
	ph := &phase{cpu: selfCPU() - cpu0, stolen: stealSince(steal0)}
	for w := 0; w < conns; w++ {
		ph.lat = append(ph.lat, lats[w]...)
		ph.at = append(ph.at, ats[w]...)
		ph.late = append(ph.late, lates[w]...)
	}
	last := lastDone[0]
	if lastDone[1].After(last) {
		last = lastDone[1]
	}
	ph.elapsed = last.Sub(start)
	return ph
}

// userHz is the kernel's clock tick in /proc/stat, fixed at 100 on Linux.
const userHz = 100

// readSteal reports the steal time of all the machine's CPUs together from
// /proc/stat: time a CPU of this VM was ready to run while the host ran
// something else. It is 0 where the kernel does not count it.
func readSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHz
}

// stealSince reports the time the host took from each of the machine's
// CPUs, on average, since readSteal returned steal0.
func stealSince(steal0 time.Duration) time.Duration {
	return (readSteal() - steal0) / time.Duration(runtime.NumCPU())
}

// selfCPU reports the generator process's user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile (nearest rank) of xs, in milliseconds.
func quantile(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return float64(s[k]) / float64(time.Millisecond)
}

// minWindowSamples is the fewest samples a latency window may hold, so
// that its p99 has at least ten samples beyond it.
const minWindowSamples = 1000

// windowedP99 splits the samples into windows of whole seconds by when
// they were due or sent, each long enough to hold minWindowSamples at the
// phase's average rate, and returns the median of the windows' p99s in
// milliseconds, with the window length. A stall of the shared machine
// lands in one window instead of setting the whole run's tail.
func windowedP99(lat, at []time.Duration, seconds int) (float64, int) {
	win := 1
	for win < seconds && len(lat)*win/seconds < minWindowSamples {
		win++
	}
	buckets := make([][]time.Duration, seconds/win)
	for i, a := range at {
		if k := int(a / (time.Duration(win) * time.Second)); k < len(buckets) {
			buckets[k] = append(buckets[k], lat[i])
		}
	}
	var p99s []float64
	for _, b := range buckets {
		if len(b) > 0 {
			p99s = append(p99s, quantile(b, 0.99))
		}
	}
	if len(p99s) == 0 {
		return quantile(lat, 0.99), seconds
	}
	return median(p99s), win
}

// median returns the median of xs.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
