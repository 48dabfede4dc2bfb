package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"aipow/internal/control"
	"aipow/internal/core"
	"aipow/internal/dataset"
	"aipow/internal/features"
	"aipow/internal/httpmw"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
	"aipow/internal/reputation"
)

// The traced replay runs the workload's request stream in-process, on the
// same deployment powserver builds, and times the calls into each module
// from this file: a span around each call, self time = span minus the
// spans nested in it. Three fresh deployments replay every operation in
// rotating order, so the shared machine's slow moments fall on all three
// alike:
//
//   - off: through the real httpmw handler with spans off, the overhead
//     baseline;
//   - on: the same with spans on; its handler time is what the ledger
//     splits;
//   - layered: the same operation as the calls the handler makes — route,
//     observe, decide, encode, decode, verify — each in its own span.
//
// httpmw's self time is the on deployment's handler time minus the layered
// deployment's module time; the other layers' self times come from the
// layered deployment, so together they sum to the on handler time. Span
// times are scaled to CPU time by each deployment's thread-CPU-to-wall
// ratio. The ledger's total is the server CPU per operation of the e2e
// phase: the residual is what the server spends outside the handler's
// module calls.

// layer is one timed call site.
type layer int

const (
	lServe layer = iota
	lBatch
	lRoute
	lObserve
	lDecide
	lDecideBatch
	lVerify
	lFeatures
	lScore
	lPolicy
	lEncode
	lDecode
	nLayers
)

// layerNames are the ledger's names; "self" marks layers with nested spans.
var layerNames = [nLayers]string{
	"httpmw.serve.self", "httpmw.batch.self", "control.route", "core.observe",
	"core.decide.self", "core.decide_batch.self", "core.verify.self",
	"features.attributes", "reputation.score", "policy.difficulty",
	"puzzle.encode", "puzzle.decode",
}

// epoch anchors span timestamps to the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// ledger accumulates spans. The replay runs on one goroutine, so only the
// map-path counter, which set-up may also touch, is atomic.
type ledger struct {
	on      bool
	incl    [nLayers]int64 // span time
	child   [nLayers]int64 // span time covered by nested spans
	top     int64          // time in outermost spans
	stack   [8]layer
	depth   int
	mapPath atomic.Int64 // Score or Attributes calls: the slow map path
}

func (l *ledger) begin(k layer) int64 {
	if !l.on {
		return 0
	}
	l.stack[l.depth] = k
	l.depth++
	return nanotime()
}

func (l *ledger) end(k layer, t0 int64) {
	if !l.on {
		return
	}
	d := nanotime() - t0
	l.depth--
	l.incl[k] += d
	if l.depth > 0 {
		l.child[l.stack[l.depth-1]] += d
	} else {
		l.top += d
	}
}

// timedScorer wraps the reputation model. It forwards every fast-path
// interface the model has, so core keeps the vector and verdict paths.
type timedScorer struct {
	m *reputation.Model
	l *ledger
}

var _ features.VerdictScorer = timedScorer{}

func (s timedScorer) Score(attrs map[string]float64) (float64, error) {
	s.l.mapPath.Add(1)
	t := s.l.begin(lScore)
	v, err := s.m.Score(attrs)
	s.l.end(lScore, t)
	return v, err
}

func (s timedScorer) Schema() *features.Schema { return s.m.Schema() }

func (s timedScorer) ScoreVector(v []float64) (float64, error) {
	t := s.l.begin(lScore)
	score, err := s.m.ScoreVector(v)
	s.l.end(lScore, t)
	return score, err
}

func (s timedScorer) VerdictVector(v []float64) (features.Verdict, error) {
	t := s.l.begin(lScore)
	ver, err := s.m.VerdictVector(v)
	s.l.end(lScore, t)
	return ver, err
}

// timedSource wraps the combined feed+tracker source, forwarding its
// vector and batch-vector fills.
type timedSource struct {
	c *features.Combined
	l *ledger
}

var _ features.VectorBatchSource = timedSource{}

func (s timedSource) Attributes(ip string, now time.Time) map[string]float64 {
	s.l.mapPath.Add(1)
	t := s.l.begin(lFeatures)
	m := s.c.Attributes(ip, now)
	s.l.end(lFeatures, t)
	return m
}

func (s timedSource) AttributesVector(dst []float64, schema *features.Schema, ip string, now time.Time) uint64 {
	t := s.l.begin(lFeatures)
	mask := s.c.AttributesVector(dst, schema, ip, now)
	s.l.end(lFeatures, t)
	return mask
}

func (s timedSource) AttributesVectorBatch(dst []float64, stride int, schema *features.Schema, ips []string, masks []uint64, now time.Time) {
	t := s.l.begin(lFeatures)
	s.c.AttributesVectorBatch(dst, stride, schema, ips, masks, now)
	s.l.end(lFeatures, t)
}

// timedPolicy wraps a pipeline's finished policy. It is a pure forwarder
// of confidence (Unwrap), exactly like the clamp it wraps, so
// policy.ConsumesConfidence sees the same chain.
type timedPolicy struct {
	p policy.Policy
	l *ledger
}

var _ policy.ConfidenceAware = timedPolicy{}

func (p timedPolicy) Name() string          { return p.p.Name() }
func (p timedPolicy) Unwrap() policy.Policy { return p.p }

func (p timedPolicy) Difficulty(score float64) int {
	t := p.l.begin(lPolicy)
	d := p.p.Difficulty(score)
	p.l.end(lPolicy, t)
	return d
}

func (p timedPolicy) ConfidentDifficulty(score, confidence float64) int {
	t := p.l.begin(lPolicy)
	d := policy.Confident(p.p, score, confidence)
	p.l.end(lPolicy, t)
	return d
}

// timedRouter wraps the gatekeeper's routing.
type timedRouter struct {
	gk *control.Gatekeeper
	l  *ledger
}

func (r timedRouter) Route(path, tenant string) *core.Framework {
	t := r.l.begin(lRoute)
	fw := r.gk.Route(path, tenant)
	r.l.end(lRoute, t)
	return fw
}

// inproc is one in-process deployment, assembled the way powserver
// assembles it, with the timing wrappers in place of the components.
type inproc struct {
	gk     *control.Gatekeeper
	router timedRouter
	mw     http.Handler
	batch  http.Handler
	l      *ledger
}

// traceInputs are the files and key a traced replay rebuilds powserver's
// deployment from.
type traceInputs struct {
	key   []byte
	feed  []dataset.Sample
	model *reputation.Model
	spec  string
}

func loadTraceInputs(dep *deployment) (*traceInputs, error) {
	ti := &traceInputs{spec: dep.spec}
	var err error
	if ti.key, err = hex.DecodeString(dep.keyHex); err != nil {
		return nil, err
	}
	f, err := os.Open(dep.feed)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if ti.feed, err = dataset.ReadCSV(f); err != nil {
		return nil, err
	}
	m, err := os.Open(dep.model)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	if ti.model, err = reputation.Load(m); err != nil {
		return nil, err
	}
	return ti, nil
}

// newInproc builds a fresh deployment: powserver's feed store (first
// benign sample as the fallback profile), a shared tracker, the "dabr"
// scorer and "combined" source names, the workload's spec, and the routed
// middleware and batch handler.
func newInproc(ti *traceInputs, l *ledger) (*inproc, error) {
	var fallback map[string]float64
	for _, s := range ti.feed {
		if !s.Malicious {
			fallback = s.Attrs
			break
		}
	}
	store, err := features.NewMapStore(fallback)
	if err != nil {
		return nil, err
	}
	for _, s := range ti.feed {
		store.Put(s.IP, s.Attrs)
	}
	tracker, err := features.NewTracker()
	if err != nil {
		return nil, err
	}
	reg, err := control.NewRegistry(ti.key, control.WithRegistryTracker(tracker))
	if err != nil {
		return nil, err
	}
	if err := reg.RegisterScorer("dabr", func(params map[string]float64) (core.Scorer, error) {
		return timedScorer{m: ti.model, l: l}, policy.RejectUnknownParams(params)
	}); err != nil {
		return nil, err
	}
	if err := reg.RegisterSource("combined", func(params map[string]float64, tr *features.Tracker) (features.Source, error) {
		c, err := features.NewCombined(store, tr)
		if err != nil {
			return nil, err
		}
		return timedSource{c: c, l: l}, policy.RejectUnknownParams(params)
	}); err != nil {
		return nil, err
	}
	dep, err := control.ParseDeployment(ti.spec)
	if err != nil {
		return nil, err
	}
	gk, err := control.NewGatekeeper(reg, dep)
	if err != nil {
		return nil, err
	}
	// The registry finishes a spec's policy by clamping it to
	// [1, max-difficulty]; the wrapper goes around that finished policy.
	for _, ps := range dep.Pipelines {
		pol, err := reg.Policies().New(ps.Policy)
		if err == nil {
			var clamp policy.Clamp
			if clamp, err = policy.NewClamp(pol, 1, control.DefaultMaxDifficulty); err == nil {
				p, _ := gk.Pipeline(ps.Name)
				err = p.Framework().SwapPolicy(timedPolicy{p: clamp, l: l})
			}
		}
		if err != nil {
			gk.Close()
			return nil, fmt.Errorf("wrap policy of pipeline %s: %w", ps.Name, err)
		}
	}
	x := &inproc{gk: gk, router: timedRouter{gk: gk, l: l}, l: l}
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "protected resource %q served at %s\n", r.URL.Path, time.Now().Format(time.RFC3339))
	})
	if x.mw, err = httpmw.NewRoutedMiddleware(x.router, app, httpmw.WithTrustedIPHeader("X-Real-IP")); err != nil {
		gk.Close()
		return nil, err
	}
	if x.batch, err = httpmw.NewRoutedBatchHandler(x.router); err != nil {
		gk.Close()
		return nil, err
	}
	return x, nil
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	h      http.Header
	status int
	body   []byte
}

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *recorder) reset() {
	clear(w.h)
	w.status = 0
	w.body = w.body[:0]
}

// body is a reusable request body.
type body struct{ bytes.Reader }

func (*body) Close() error { return nil }

// replay is the stream the traced replay runs, prepared before any of it
// is timed.
type replay struct {
	p      *plan
	prep   *prepared
	ipHdr  [][]string // X-Real-IP value per operation
	solHdr [][]string // X-PoW-Solution value per operation, nil for none
	items  [][]batchItem
	bodies [][]byte
	warm   [][]byte // batch-churn set-up bodies

	// Requests reused across operations, so the replay loop itself does
	// not allocate.
	get, getLogin, post *http.Request
	body                *body
}

// runner is one deployment of the replay with its own ledger, and the
// wall time, thread CPU time and failures of the operations it ran.
type runner struct {
	mode      string // "off", "on" or "layered"
	x         *inproc
	l         *ledger
	rec       *recorder
	wall, cpu int64 // ns
	bad       int64
	firstBad  string
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the calling thread's CPU time in ns. The replay locks
// its goroutine to one thread, so differences are the replay's own CPU.
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// newRunner builds a fresh deployment for one mode and, on batch-churn,
// fills its tracker past capacity as the e2e set-up does.
func (rp *replay) newRunner(ti *traceInputs, mode string) (*runner, error) {
	l := &ledger{}
	x, err := newInproc(ti, l)
	if err != nil {
		return nil, err
	}
	r := &runner{mode: mode, x: x, l: l, rec: &recorder{h: http.Header{}}}
	for _, w := range rp.warm {
		rp.body.Reset(w)
		r.rec.reset()
		x.batch.ServeHTTP(r.rec, rp.post)
		if r.rec.status != http.StatusOK {
			x.gk.Close()
			return nil, fmt.Errorf("traced warm-up batch: status %d: %s", r.rec.status, r.rec.body)
		}
	}
	l.on = mode != "off"
	return r, nil
}

// step replays operation (or batch) i on r.
func (rp *replay) step(r *runner, i int) {
	t0, c0 := nanotime(), threadCPU()
	var ok bool
	switch {
	case rp.p.workload == batchChurn && r.mode == "layered":
		ok = rp.layeredBatch(r.x, i)
	case rp.p.workload == batchChurn:
		ok = rp.handlerBatch(r.x, r.rec, i)
	case r.mode == "layered":
		ok = rp.layeredOp(r.x, i)
	default:
		ok = rp.handlerOp(r.x, r.rec, i)
	}
	r.cpu += threadCPU() - c0
	r.wall += nanotime() - t0
	if !ok {
		r.bad++
		if r.firstBad == "" {
			r.firstBad = fmt.Sprintf("%s replay, operation %d: status %d: %.200s", r.mode, i, r.rec.status, r.rec.body)
		}
	}
}

// handlerOp sends operation i through the real middleware.
func (rp *replay) handlerOp(x *inproc, rec *recorder, i int) bool {
	req := rp.get
	if rp.p.ops[i].kind == opForged {
		req = rp.getLogin
	}
	req.Header["X-Real-Ip"] = rp.ipHdr[i]
	if rp.solHdr[i] != nil {
		req.Header["X-Pow-Solution"] = rp.solHdr[i]
	} else {
		delete(req.Header, "X-Pow-Solution")
	}
	rec.reset()
	t := x.l.begin(lServe)
	x.mw.ServeHTTP(rec, req)
	x.l.end(lServe, t)
	return rp.expected(i, rec.status)
}

// expected reports whether status is the right answer to operation i.
func (rp *replay) expected(i, status int) bool {
	o := rp.p.ops[i]
	switch o.kind {
	case opChallenge:
		return status == httpmw.StatusChallenge
	case opRedeem:
		return status == http.StatusOK
	default:
		return status == httpmw.StatusChallenge || (status == http.StatusOK && rp.prep.chals[i].Meets(o.nonce))
	}
}

// layeredOp makes the calls the middleware makes for operation i, in its
// order, each in its own span.
func (rp *replay) layeredOp(x *inproc, i int) bool {
	o := rp.p.ops[i]
	ip := rp.ipHdr[i][0]
	path := "/"
	if o.kind == opForged {
		path = "/login"
	}
	fw := x.router.Route(path, "")
	if o.kind == opChallenge {
		rp.observe(x, fw, ip, path, false)
		return rp.challenge(x, fw, ip) && rp.expected(i, httpmw.StatusChallenge)
	}
	var sol puzzle.Solution
	t := x.l.begin(lDecode)
	err := sol.UnmarshalText([]byte(rp.solHdr[i][0]))
	x.l.end(lDecode, t)
	if err != nil {
		rp.observe(x, fw, ip, path, true)
		return false
	}
	t = x.l.begin(lVerify)
	err = fw.Verify(sol, ip)
	x.l.end(lVerify, t)
	if err != nil {
		rp.observe(x, fw, ip, path, false)
		return rp.challenge(x, fw, ip) && rp.expected(i, httpmw.StatusChallenge)
	}
	rp.observe(x, fw, ip, path, false)
	return rp.expected(i, http.StatusOK)
}

func (rp *replay) observe(x *inproc, fw *core.Framework, ip, path string, failed bool) {
	info := features.RequestInfo{IP: ip, Path: path, At: time.Now(), Failed: failed}
	t := x.l.begin(lObserve)
	_ = fw.Observe(info)
	x.l.end(lObserve, t)
}

func (rp *replay) challenge(x *inproc, fw *core.Framework, ip string) bool {
	t := x.l.begin(lDecide)
	dec, err := fw.Decide(core.RequestContext{IP: ip})
	x.l.end(lDecide, t)
	if err != nil || dec.Bypassed {
		return false
	}
	t = x.l.begin(lEncode)
	_, err = dec.Challenge.MarshalText()
	x.l.end(lEncode, t)
	return err == nil
}

// handlerBatch sends batch j through the real batch handler.
func (rp *replay) handlerBatch(x *inproc, rec *recorder, j int) bool {
	rp.body.Reset(rp.bodies[j])
	rec.reset()
	t := x.l.begin(lBatch)
	x.batch.ServeHTTP(rec, rp.post)
	x.l.end(lBatch, t)
	return rec.status == http.StatusOK && bytes.Count(rec.body, []byte(`"status":"challenge"`)) == len(rp.items[j])
}

// layeredBatch makes the calls the batch handler makes for a decide-only
// batch, in its order, each in its own span.
func (rp *replay) layeredBatch(x *inproc, j int) bool {
	items := rp.items[j]
	var fw *core.Framework
	for range items {
		fw = x.router.Route("/", "")
	}
	now := time.Now()
	obs := make([]features.RequestInfo, len(items))
	reqs := make([]core.RequestContext, len(items))
	for k, it := range items {
		obs[k] = features.RequestInfo{IP: it.ip, Path: "/", At: now}
		reqs[k] = core.RequestContext{IP: it.ip}
	}
	t := x.l.begin(lObserve)
	_ = fw.ObserveBatch(obs)
	x.l.end(lObserve, t)
	t = x.l.begin(lDecideBatch)
	decs, err := fw.DecideBatch(reqs, nil)
	x.l.end(lDecideBatch, t)
	if err != nil {
		return false
	}
	ok := true
	for k := range decs {
		t = x.l.begin(lEncode)
		_, err := decs[k].Challenge.MarshalText()
		x.l.end(lEncode, t)
		ok = ok && err == nil && !decs[k].Bypassed
	}
	return ok
}

// runtimeStats are process-wide runtime counters.
type runtimeStats struct {
	allocBytes, allocs uint64
	gcCPU, cpu         float64 // seconds: GC, and all CPU the process used
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: ms.TotalAlloc, allocs: ms.Mallocs,
		gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

// maxTraceBatches bounds the batch-churn stream the replay prepares.
const maxTraceBatches = 2000

// traceReplay prepares the stream the e2e phase measured, replays it and
// fills the per-layer ledger.
func traceReplay(cfg config, dep *deployment, m *measured, res *result) error {
	ti, err := loadTraceInputs(dep)
	if err != nil {
		return err
	}
	setup := &ledger{}
	rp := &replay{p: m.plan, body: &body{}}
	if rp.get, err = http.NewRequest(http.MethodGet, "http://bench/", nil); err == nil {
		if rp.getLogin, err = http.NewRequest(http.MethodGet, "http://bench/login", nil); err == nil {
			rp.post, err = http.NewRequest(http.MethodPost, "http://bench/batch", nil)
		}
	}
	if err != nil {
		return err
	}
	rp.post.Body = rp.body
	n := m.ops
	opsPer := 1
	if m.plan.workload == batchChurn {
		n, opsPer = min(n, maxTraceBatches), batchSize
		for j := 0; j < n; j++ {
			items := m.plan.batchItems(int64(j), nil)
			rp.items = append(rp.items, items)
			rp.bodies = append(rp.bodies, appendBatchBody(nil, items))
		}
		for _, items := range warmSets(m.plan) {
			rp.warm = append(rp.warm, appendBatchBody(nil, items))
		}
	} else {
		// Challenges come from an in-process deployment with the same key,
		// so every fresh deployment accepts them once.
		x, err := newInproc(ti, setup)
		if err != nil {
			return err
		}
		fetch := func(_ int, ip, path string) (puzzle.Challenge, error) {
			dec, err := x.gk.Route(path, "").Decide(core.RequestContext{IP: ip})
			return dec.Challenge, err
		}
		rp.prep, err = fetchChallenges(m.plan, n, fetch, newTally())
		x.gk.Close()
		if err != nil {
			return err
		}
		rp.ipHdr, rp.solHdr = make([][]string, n), make([][]string, n)
		for i, o := range m.plan.ops[:n] {
			rp.ipHdr[i] = []string{m.plan.feed[o.ip].ip}
			if o.kind != opChallenge {
				rp.solHdr[i] = []string{rp.prep.tokens[i]}
			}
		}
	}

	// Warm the process on a throwaway deployment, then replay each
	// operation on the three deployments in rotating order, so that the
	// shared machine's slow and fast moments fall on all three alike.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	budget := time.Duration(cfg.seconds) * time.Second / 2
	warm, err := rp.newRunner(ti, "off")
	if err != nil {
		return err
	}
	for i, until := 0, time.Now().Add(budget/8); i < n && time.Now().Before(until); i++ {
		rp.step(warm, i)
	}
	warm.x.gk.Close()
	var runners [3]*runner
	for k, mode := range []string{"off", "on", "layered"} {
		if runners[k], err = rp.newRunner(ti, mode); err != nil {
			return err
		}
		defer runners[k].x.gk.Close()
	}
	off, on, lay := runners[0], runners[1], runners[2]
	until := time.Now().Add(budget)
	i := 0
	for ; i < n && (i%16 != 0 || time.Now().Before(until)); i++ {
		for k := range runners {
			rp.step(runners[(i+k)%3], i)
		}
	}
	n = i

	// Runtime counters come from one more spans-off replay of the same
	// operations on its own deployment, since the rotation shares the heap.
	rt, err := rp.newRunner(ti, "off")
	if err != nil {
		return err
	}
	before := readRuntime()
	for i := 0; i < n; i++ {
		rp.step(rt, i)
	}
	after := readRuntime()
	rt.x.gk.Close()
	handler := on.l.incl[lServe] + on.l.incl[lBatch]
	l := lay.l

	// Spans time wall clock; the ledger's total is CPU time. Each
	// deployment's spans are scaled by its own CPU-to-wall ratio, which
	// takes out the time the shared machine's host stole from the replay.
	ops := float64(n * opsPer)
	cpuShare := func(r *runner) float64 { return float64(r.cpu) / float64(r.wall) }
	per := func(ns int64, r *runner) float64 { return float64(ns) * cpuShare(r) / ops }
	self := make([]float64, nLayers)
	for k := range self {
		self[k] = per(l.incl[k]-l.child[k], lay)
	}
	httpSelf := per(handler, on) - per(l.top, lay)
	if m.plan.workload == batchChurn {
		self[lBatch] = httpSelf
	} else {
		self[lServe] = httpSelf
	}
	// The ledger's total is the server CPU per operation the measured
	// phase saw, so the residual is the server's cost outside the module
	// calls: net/http, the loopback socket, the runtime.
	total := m.serverNsPerOp
	sum, gate := 0.0, 0.0
	for k, v := range self {
		sum += v
		name := layerNames[k]
		if strings.HasSuffix(name, ".self") {
			res.info[name+"_ns"] = v
		} else {
			res.info[name+".ns"] = v
		}
		res.layer[name+"_pct"] = metric{100 * v / total, "%"}
		if layer(k) >= lObserve && layer(k) <= lPolicy {
			gate += v
		}
	}
	res.layer["trace.total_ns_per_op"] = metric{total, "ns"}
	res.layer["trace.handler_ns_per_op"] = metric{sum, "ns"}
	res.layer["trace.residual_ns_per_op"] = metric{total - sum, "ns"}
	res.layer["trace.overhead_ns_per_op"] = metric{float64(on.cpu-off.cpu) / ops, "ns"}
	res.info["trace.replay_loop_ns_per_op"] = float64(on.cpu)/ops - sum
	res.info["trace.cpu_to_wall"] = map[string]float64{"off": cpuShare(off), "on": cpuShare(on), "layered": cpuShare(lay)}
	res.layer["trace.gate_pct"] = metric{100 * gate / total, "%"}
	res.layer["trace.ops"] = metric{ops, "count"}
	mapPath := setup.mapPath.Load()
	for _, r := range []*runner{warm, off, on, lay, rt} {
		mapPath += r.l.mapPath.Load()
	}
	res.layer["trace.map_path_calls"] = metric{float64(mapPath), "count"}
	res.layer["runtime.alloc_bytes_per_op"] = metric{float64(after.allocBytes-before.allocBytes) / ops, "B"}
	res.layer["runtime.allocs_per_op"] = metric{float64(after.allocs-before.allocs) / ops, "count"}
	res.layer["runtime.gc_cpu_pct"] = metric{100 * ratio(after.gcCPU-before.gcCPU, after.cpu-before.cpu), "%"}

	if mapPath != 0 {
		res.correct = false
		res.errs = append(res.errs, fmt.Sprintf("traced replay took %d map-path Score/Attributes calls; a wrapper lost a fast-path interface", mapPath))
	}
	for _, r := range []*runner{off, on, lay, rt} {
		res.attempted += int64(n * opsPer)
		res.failed += r.bad * int64(opsPer)
		if r.bad > 0 {
			res.correct = false
			res.errs = append(res.errs, r.firstBad)
		}
	}
	return nil
}
