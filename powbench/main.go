// Command powbench measures the aipow gate end to end: it drives the real
// powserver binary over loopback with one of three seeded workloads and
// reports throughput, latency, server CPU and memory per operation. With
// -trace 1 it also replays the same request stream in-process, timing the
// calls into each module, and reports a per-layer cost ledger. See
// README.md for the workloads, the metrics and the layer map.
//
// It is normally started through run.sh, which builds the binaries first:
//
//	bash powbench/run.sh --workload front-door --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"aipow/internal/dataset"
)

// setupStarts is how many times each run starts powserver to time its
// set-up; setup_s is the median.
const setupStarts = 7

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	work     string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's report: the end-to-end and per-layer metrics, the
// generator's self-report, and the verdict.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	e2e       map[string]metric
	layer     map[string]metric
	info      map[string]any
	errs      []string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the feed, model, key and request stream derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: also run the in-process traced replay and report per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the powserver and dabr binaries")
	flag.StringVar(&cfg.work, "work", "", "directory for the run's scratch files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.bin == "" || cfg.work == "" || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "powbench: -bin, -work, -seconds ≥ 1 and -trace 0|1 are required; use run.sh")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(conns, runtime.NumCPU()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		stopAll()
		fmt.Fprintf(os.Stderr, "powbench: %v; servers stopped\n", s)
		os.Exit(1)
	}()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "powbench: %v\n", err)
		os.Exit(1)
	}
	report(cfg, res)
	if !res.correct {
		os.Exit(1)
	}
}

// run prepares the inputs, times powserver's set-up, runs the measured
// phase and, with tracing, the in-process replay.
func run(cfg config) (*result, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	dep, feed, err := inputs(cfg, dir)
	if err != nil {
		return nil, err
	}
	res := &result{correct: true, e2e: map[string]metric{}, layer: map[string]metric{}, info: map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"connections": conns, "spec": dep.spec, "feed_ips": len(feed),
	}}

	// Set-up time: the server's CPU time from exec to its first healthy
	// reply, median of several starts. CPU time, unlike the wall time next
	// to it in the report, does not grow with the time the shared
	// machine's host steals. The last server stays up for the measured
	// phase.
	var srv *server
	var startups, startupCPU []float64
	for n := 0; n < setupStarts; n++ {
		srv.stop()
		if srv, err = dep.start(n); err != nil {
			return nil, err
		}
		startups = append(startups, srv.startup.Seconds())
		startupCPU = append(startupCPU, srv.startupCPU.Seconds())
	}
	defer srv.stop()
	res.e2e["setup_s"] = metric{median(startupCPU), "s"}
	res.info["setup_wall_s"] = median(startups)
	res.info["startups_wall_s"] = startups

	m, err := measure(cfg, srv, feed, res)
	if err != nil {
		return nil, err
	}
	srv.stop()
	if cfg.trace {
		if err := traceReplay(cfg, dep, m, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// inputs writes the feed, model and spec of a run, all derived from the
// seed, and loads the feed's labels for the generator.
func inputs(cfg config, dir string) (*deployment, []feedIP, error) {
	key := sha256.Sum256([]byte(fmt.Sprintf("powbench key %d", cfg.seed)))
	dep := &deployment{
		bin: cfg.bin, dir: dir,
		feed:   filepath.Join(dir, "feed.csv"),
		model:  filepath.Join(dir, "model.json"),
		spec:   specFor(cfg.workload),
		keyHex: hex.EncodeToString(key[:]),
		token:  hex.EncodeToString(key[:8]),
	}
	seed := fmt.Sprint(cfg.seed)
	dabr := filepath.Join(cfg.bin, "dabr")
	for _, args := range [][]string{
		{"generate", "-n", fmt.Sprint(feedSize), "-seed", seed, "-out", dep.feed},
		{"train", "-data", dep.feed, "-seed", seed, "-out", dep.model},
	} {
		if out, err := exec.Command(dabr, args...).CombinedOutput(); err != nil {
			return nil, nil, fmt.Errorf("dabr %s: %v: %s", args[0], err, out)
		}
	}
	f, err := os.Open(dep.feed)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	samples, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, nil, err
	}
	feed := make([]feedIP, len(samples))
	for i, s := range samples {
		feed[i] = feedIP{ip: s.IP, malicious: s.Malicious}
	}
	return dep, feed, nil
}

// specFor is the deployment each workload serves. front-door and
// batch-churn run one hashcash pipeline; balloon-forged adds a balloon
// pipeline on /login.
func specFor(workload string) string {
	const web = `pipeline web
  scorer dabr
  policy policy2
  source combined
  puzzle hashcash
`
	if workload != balloonForged {
		return web
	}
	return web + `pipeline login
  scorer dabr
  policy policy2
  source combined
  puzzle balloon
route / web
route /login login
`
}

// measured is what the e2e phase hands to the traced replay: the plan and
// how many operations it measured.
type measured struct {
	plan          *plan
	ops           int     // operations (single-request) or batches (batch-churn) measured
	serverNsPerOp float64 // server CPU per operation (decision on batch-churn)
}

// measure runs set-up and the measured phase of the workload against srv
// and fills the end-to-end metrics, the generator's self-report and the
// server counters.
func measure(cfg config, srv *server, feed []feedIP, res *result) (*measured, error) {
	front, admin := workerConns(srv.addr), workerConns(srv.admin)
	defer func() {
		for w := range front {
			front[w].close()
			admin[w].close()
		}
	}()
	t := newTally()
	var (
		p        *plan
		ph       *phase
		benign   []time.Duration
		benignAt []time.Duration
		prep     time.Duration
		ops      int
		before   counters
		cpuStart time.Duration
		err      error
	)
	pid := srv.cmd.Process.Pid
	// beginMeasure scrapes the counters and reads the server CPU at the
	// phase boundary.
	beginMeasure := func() error {
		if before, err = srv.scrape(); err != nil {
			return err
		}
		cpuStart, err = procCPU(pid)
		return err
	}
	switch cfg.workload {
	case frontDoor, balloonForged:
		rate := frontDoorRate
		if cfg.workload == balloonForged {
			rate = forgedRate + benignRate
		}
		n := rate * cfg.seconds
		if p, err = newPlan(cfg.workload, cfg.seed, feed, n); err != nil {
			return nil, err
		}
		t0 := time.Now()
		ready, err := fetchChallenges(p, n, httpFetch(front), t)
		if err != nil {
			return nil, err
		}
		prep = time.Since(t0)
		if err := beginMeasure(); err != nil {
			return nil, err
		}
		tallies := [conns]*tally{newTally(), newTally()}
		ph = runOpen(n, time.Second/time.Duration(rate), func(w, i int) {
			singleOp(front[w], p, ready, i, tallies[w])
		})
		for _, wt := range tallies {
			t.merge(wt)
		}
		ops = n
		for i, o := range p.ops {
			if (o.kind == opRedeem) || (cfg.workload == frontDoor && !feed[o.ip].malicious) {
				benign = append(benign, ph.lat[i])
				benignAt = append(benignAt, ph.at[i])
			}
		}
	case batchChurn:
		if p, err = newPlan(cfg.workload, cfg.seed, feed, 0); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := warmBatches(admin, srv.token, p); err != nil {
			return nil, err
		}
		prep = time.Since(t0)
		if err := beginMeasure(); err != nil {
			return nil, err
		}
		tallies := [conns]*tally{newTally(), newTally()}
		var items [conns][window][]batchItem
		var bodies [conns][window][]byte
		var sends [conns][window]sent
		var calls [conns]int
		ph = runClosed(time.Duration(cfg.seconds)*time.Second, func(w, slot int, j int64) {
			items[w][slot] = p.batchItems(j, items[w][slot])
			bodies[w][slot] = appendBatchBody(bodies[w][slot][:0], items[w][slot])
			sends[w][slot] = batchSend(admin[w], srv.token, bodies[w][slot])
		}, func(w, slot int) {
			batchCheck(admin[w], p, items[w][slot], sends[w][slot], tallies[w])
			calls[w]++
		})
		for w, wt := range tallies {
			t.merge(wt)
			ops += calls[w]
		}
		benign, benignAt = ph.lat, ph.at
	}
	cpuEnd, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		return nil, err
	}

	done := float64(t.attempted - t.failed)
	res.attempted, res.failed = t.attempted, t.failed
	res.e2e["ops_per_s"] = metric{done / ph.elapsed.Seconds(), "1/s"}
	res.info["steal_frac"] = ph.stolen.Seconds() / ph.elapsed.Seconds()
	if cfg.workload == batchChurn {
		// Closed loop: the rate is what the CPUs the host gave the VM
		// could do, so the time the host stole from both is left out.
		// The wall-clock rate is in the report line.
		res.info["ops_per_s_wall"] = res.e2e["ops_per_s"].Value
		res.e2e["ops_per_s"] = metric{done / (ph.elapsed - ph.stolen).Seconds(), "1/s"}
	}
	res.e2e["server_cpu_us_per_op"] = metric{float64((cpuEnd-cpuStart)/time.Nanosecond) / 1e3 / done, "us"}
	res.layer["loadgen.p50_ms"] = metric{quantile(ph.lat, 0.50), "ms"}
	p99, win := windowedP99(ph.lat, ph.at, cfg.seconds)
	benignP99, benignWin := windowedP99(benign, benignAt, cfg.seconds)
	res.layer["loadgen.p99_ms"] = metric{p99, "ms"}
	res.layer["loadgen.benign_p99_ms"] = metric{benignP99, "ms"}
	res.info["p99_window_s"], res.info["benign_p99_window_s"] = win, benignWin
	res.info["p99_whole_run_ms"] = quantile(ph.lat, 0.99)
	service := make([]time.Duration, len(ph.lat))
	for i := range service {
		service[i] = ph.lat[i] - ph.late[i]
	}
	res.info["service_p50_ms"] = quantile(service, 0.5)
	res.info["service_p99_ms"], _ = windowedP99(service, ph.at, cfg.seconds)

	res.e2e["server_rss_mb"] = metric{float64(rss) / (1 << 20), "MiB"}
	res.layer["policy.issued_work_ratio"] = metric{t.workRatio(), "ratio"}
	res.info["error_rate"] = float64(t.failed) / float64(t.attempted)
	res.info["latency_samples"] = len(ph.lat)
	res.info["benign_latency_samples"] = len(benign)
	res.info["chance_valid_forgeries"] = t.chanceValid

	// Generator self-report.
	lateP50, lateP99 := quantile(ph.late, 0.50), quantile(ph.late, 0.99)
	behind := lateP99 > 5 || ph.backlog > 50
	res.info["generator_behind"] = behind
	if behind {
		fmt.Fprintf(os.Stderr, "powbench: generator fell behind its schedule (late p99 %.3f ms, backlog %d); latencies include its lag\n", lateP99, ph.backlog)
	}
	res.layer["loadgen.late_p50_ms"] = metric{lateP50, "ms"}
	res.layer["loadgen.late_p99_ms"] = metric{lateP99, "ms"}
	res.layer["loadgen.cpu_us_per_op"] = metric{float64(ph.cpu/time.Nanosecond) / 1e3 / done, "us"}
	res.layer["loadgen.prepare_s"] = metric{prep.Seconds(), "s"}
	res.layer["loadgen.samples"] = metric{float64(len(ph.lat)), "count"}
	res.layer["loadgen.backlog_max"] = metric{float64(ph.backlog), "count"}
	res.layer["loadgen.chance_valid"] = metric{float64(t.chanceValid), "count"}
	attempts := 0.0
	if t.solves > 0 {
		attempts = float64(t.attempts) / float64(t.solves)
	}
	res.layer["puzzle.solve.attempts_per_op"] = metric{attempts, "count"}

	// Server counters over the measured phase.
	pipes := []string{"web"}
	if cfg.workload == balloonForged {
		pipes = append(pipes, "login")
	}
	sum := func(name string) float64 {
		v := 0.0
		for _, pl := range pipes {
			v += delta(before, after, name+"/"+pl)
		}
		return v
	}
	for _, c := range []string{"issued", "verified", "rejected", "bypassed"} {
		res.layer["core."+c] = metric{sum(c), "count"}
	}
	res.layer["features.evictions"] = metric{delta(before, after, "tracker_evictions/web"), "count"}
	decisions := sum("issued") + sum("bypassed")
	stage := func(st string) (sumMS, count float64) {
		for _, pl := range pipes {
			sumMS += delta(before, after, "serving_latency_ms_sum/"+pl+"/"+st)
			count += delta(before, after, "serving_latency_ms_count/"+pl+"/"+st)
		}
		return sumMS, count
	}
	dSum, _ := stage("decide")
	bSum, bCount := stage("batch")
	vSum, vCount := stage("verify")
	res.layer["core.stage_decide_us"] = metric{ratio((dSum+bSum)*1e3, decisions), "us"}
	res.info["core.stage_verify_us"] = ratio(vSum*1e3, vCount)
	res.info["core.stage_batch_us"] = ratio(bSum*1e3, bCount)

	// Request-accounting identity: the server's counter deltas must equal
	// what the generator saw.
	for _, pl := range pipes {
		want := map[string]float64{
			"issued":   float64(t.challenged[pl]),
			"verified": float64(t.passed[pl]),
			"rejected": 0,
			"bypassed": 0,
		}
		if pl == "login" {
			want["rejected"] = float64(t.challenged[pl])
		}
		for _, c := range []string{"issued", "verified", "rejected", "bypassed"} {
			if got := delta(before, after, c+"/"+pl); got != want[c] {
				res.correct = false
				res.errs = append(res.errs, fmt.Sprintf("accounting: server counted %s/%s=%v over the phase, the generator saw %v", pl, c, got, want[c]))
			}
		}
	}
	if t.wrong > 0 {
		res.correct = false
	}
	res.errs = append(res.errs, t.errs...)
	if t.nMal == 0 || t.nBen == 0 {
		res.correct = false
		res.errs = append(res.errs, "no challenges issued to one of the labels; issued_work_ratio undefined")
	}
	return &measured{plan: p, ops: ops, serverNsPerOp: res.e2e["server_cpu_us_per_op"].Value * 1e3}, nil
}

// warmSets is batch-churn's set-up stream: enough spray addresses to fill
// the tracker past its capacity, so the measured phase runs with LRU
// evictions, then every feed IP once, so the hot set starts resident.
func warmSets(p *plan) [][]batchItem {
	var sets [][]batchItem
	for j := int64(-warmSpray / batchSize); j < 0; j++ {
		sets = append(sets, p.batchItems(j, nil))
	}
	for i := 0; i < len(p.feed); i += batchSize {
		var items []batchItem
		for k := i; k < min(i+batchSize, len(p.feed)); k++ {
			items = append(items, batchItem{ip: p.feed[k].ip, feed: int32(k)})
		}
		sets = append(sets, items)
	}
	return sets
}

// warmBatches sends the set-up stream to the server.
func warmBatches(cs [conns]*conn, token string, p *plan) error {
	sets := warmSets(p)
	var bodies [][]byte
	for _, items := range sets {
		bodies = append(bodies, appendBatchBody(nil, items))
	}
	t := newTally()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := newTally()
			for k := w; k < len(sets); k += conns {
				batchCall(cs[w], token, p, sets[k], bodies[k], local)
			}
			mu.Lock()
			t.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.failed > 0 {
		return fmt.Errorf("batch warm-up: %d of %d decisions failed: %v", t.failed, t.attempted, t.errs)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Units and directions of the metrics, for the report. The last line of
// output carries the end-to-end metrics (-trace 0) or the per-layer ones
// (-trace 1), as BENCHMARK.json declares them.
func report(cfg config, res *result) {
	fmt.Printf("powbench %s seed=%d seconds=%d trace=%v go=%s GOMAXPROCS=%v nproc=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, res.info["go"], res.info["gomaxprocs"], res.info["nproc"])
	for _, group := range []map[string]metric{res.e2e, res.layer} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-34s %14.4f %s\n", k, group[k].Value, group[k].Unit)
		}
	}
	fmt.Printf("  %-34s %14d/%d\n", "failed/attempted", res.failed, res.attempted)
	for _, e := range res.errs {
		fmt.Printf("  error: %s\n", e)
	}
	report, _ := json.Marshal(map[string]any{"report": res.info, "end_to_end": res.e2e, "per_layer": res.layer})
	fmt.Println(string(report))

	metrics := res.e2e
	if cfg.trace {
		metrics = res.layer
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			metrics[k] = metric{0, m.Unit}
		}
	}
	last, _ := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	fmt.Println(string(last))
}
