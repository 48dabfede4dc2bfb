// Package control is the framework's runtime control plane: declarative
// deployment specifications, a component registry that compiles them into
// runnable pipelines, and a gatekeeper that routes request classes onto
// named pipelines — all hot-swappable while the serving path keeps running
// allocation-free.
//
// The paper's framing is that operators tune defense by swapping policies,
// not redeploying code. This package extends that from the policy to the
// whole pipeline: a Spec names the scorer, policy, source, TTL, difficulty
// cap, bypass threshold, and limits in a short text (or JSON) document;
// Registry.Build compiles it into a *Pipeline around a core.Framework; and
// Pipeline.Apply / Gatekeeper.Apply install a revised spec atomically
// against live traffic (RCU snapshot swap in core, immutable route-table
// swap here). Long-lived shared state — the behavior tracker and the HMAC
// key — lives in the Registry and persists across every apply.
package control

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"aipow/internal/feedback"
	"aipow/internal/obs"
	"aipow/internal/puzzle"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("30s") in JSON specs and accepts either a string or integer nanoseconds
// when unmarshaling, so text and JSON spec forms stay interconvertible.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// String renders the duration like time.Duration ("30s").
func (d Duration) String() string { return time.Duration(d).String() }

// UnmarshalJSON accepts "30s"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("control: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("control: duration must be a string like \"30s\" or integer nanoseconds")
	}
	*d = Duration(ns)
	return nil
}

// PipelineSpec declares one runnable pipeline: which components serve a
// request class and under what limits. Scorer, Policy and Source use the
// shared component-spec syntax "name" or "name(k=v,k2=v2)"; names resolve
// against the Registry the spec is built with. Whether Pipeline.Apply may
// change a field in place is its statement's swap class, declared in the
// statements table.
type PipelineSpec struct {
	// Name identifies the pipeline (route targets, logs, stats).
	Name string `json:"name"`

	// Scorer is the AI-model spec, e.g. "dabr" or "hybrid(saturation=4)".
	// Required.
	Scorer string `json:"scorer"`

	// Policy is the score→difficulty policy in registry syntax, e.g.
	// "policy2" or "policy3(epsilon=2.5)". Exactly one of Policy and
	// PolicyRules must be set.
	Policy string `json:"policy,omitempty"`

	// PolicyRules is an inline policy program in the rule DSL ("when score
	// >= 8 use 14 / default 3" lines). In the text spec form, bare when/
	// default lines inside a pipeline block land here.
	PolicyRules string `json:"policy_rules,omitempty"`

	// Source is the attribute-source spec (default "tracker", the live
	// behavior tracker alone). Deployments with a static feed register and
	// name richer sources, e.g. "combined".
	Source string `json:"source,omitempty"`

	// Puzzle selects the pipeline's puzzle backend in the puzzle package's
	// spec syntax: "hashcash(bits=22)" or "balloon(space=256, time=2)"
	// (empty = the default hashcash backend, Version1 wire format). Each
	// pipeline signs with its own derived key, so a solution minted on one
	// route never redeems on another regardless of backend. Not
	// hot-swappable: the backend is pinned into the issuer and verifier at
	// build time, so changing it rebuilds the pipeline (in-flight
	// challenges from the old backend stop verifying — fail-closed, like a
	// key rotation).
	Puzzle string `json:"puzzle,omitempty"`

	// TrackerWindow gives the pipeline its own behavior tracker with this
	// sliding-window span instead of the registry's shared default-window
	// tracker — so one deployment can pair a short-memory window on a
	// login route with a long one on the frontend. Pipelines declaring
	// equal windows share one tracker (behavioral history still follows a
	// client across those routes); the zero value keeps the shared
	// default. Not hot-swappable: the tracker is wired into the framework
	// at build time, so changing it rebuilds the pipeline.
	TrackerWindow Duration `json:"window,omitempty"`

	// TTL is the challenge lifetime (0 = puzzle.DefaultTTL).
	TTL Duration `json:"ttl,omitempty"`

	// MaxDifficulty caps what the issuer signs (0 = 22). The compiled
	// policy is clamped to [1, MaxDifficulty] so a worst-score client
	// still receives a challenge rather than an error.
	MaxDifficulty int `json:"max_difficulty,omitempty"`

	// BypassBelow lets requests scoring strictly under it skip the puzzle;
	// nil or negative disables.
	BypassBelow *float64 `json:"bypass_below,omitempty"`

	// FailClosedScore is the score assumed when the scorer errors (nil =
	// 10, maximally suspicious).
	FailClosedScore *float64 `json:"fail_closed_score,omitempty"`

	// ReplayCache bounds the single-use seed cache (0 = 1<<16, negative
	// disables replay protection).
	ReplayCache int `json:"replay_cache,omitempty"`

	// AuthCacheSlots sizes the issuer/verifier authenticated-challenge
	// cache (0 = 2048; rounded up to a power of two, clamped to
	// [64, 1<<22]). Size toward ≥ 10× the challenges outstanding at any
	// instant; a miss only costs an HMAC recomputation.
	AuthCacheSlots int `json:"auth_cache,omitempty"`

	// ClockSkew is the verifier's tolerance for clock drift (0 = 2s).
	ClockSkew Duration `json:"clock_skew,omitempty"`

	// Adapt attaches a closed-loop feedback controller to the pipeline:
	// live signal estimation driving automatic policy escalation. Nil
	// leaves the pipeline purely operator-driven. Hot-swappable — but an
	// Apply that changes the pipeline also resets the controller to its
	// base level (the declared spec always wins over accumulated
	// escalation state).
	Adapt *AdaptSpec `json:"adapt,omitempty"`

	// Redeem wraps the pipeline's scorer with behavioral redemption
	// (reputation.Decay): sustained verified-solve evidence earns a
	// bounded, decaying score attenuation, closing the false-positive
	// tail. The scorer spec must resolve to a vector-capable scorer. Max
	// and half-credit are hot-swappable; half-life is the evidence decay
	// horizon of the pipeline's behavior tracker and therefore rebuilds
	// the pipeline when changed (pipelines declaring the same window and
	// half-life share a tracker).
	Redeem *RedeemSpec `json:"redeem,omitempty"`

	// EvidenceBuffer enables buffered evidence write-back on the
	// pipeline's framework (core.WithEvidenceBuffer): Observe and the
	// verification evidence append to per-shard buffers flushed in the
	// background, taking tracker shard locks off the serving path. Not
	// hot-swappable: the flush loop is wired at build time.
	EvidenceBuffer *BufferSpec `json:"evidence_buffer,omitempty"`

	// Observe configures the pipeline's sampled decision tracing. Nil
	// disables tracing (the serving path then pays one nil-check per
	// decision). Hot-swappable: the trace ring lives in the framework's
	// RCU snapshot, so an Apply that only changes this section is a plain
	// snapshot swap.
	Observe *ObserveSpec `json:"observe,omitempty"`

	// Cluster joins the pipeline to the distributed defense plane: a
	// cluster.Node is built alongside the framework, wired as the
	// verifier's fleet tag filter, bound to the pipeline's tracker for
	// evidence gossip, and summed into the adapt controller's sampler so
	// escalation fires on cluster-wide rates. Nil keeps the pipeline
	// standalone with zero behavior change. Not hot-swappable: the node
	// is pinned into the verifier at build time, like ttl — changing it
	// rebuilds the pipeline.
	Cluster *ClusterSpec `json:"cluster,omitempty"`
}

// RedeemSpec is a pipeline's behavioral-redemption section. In the text
// DSL it is a single `redeem(max=6, half-credit=26, half-life=5m)` line;
// every parameter is optional (zero keeps the reputation package's or the
// tracker's default).
type RedeemSpec struct {
	// Max caps the score attenuation evidence can earn
	// (0 = reputation.DefaultMaxRedemption).
	Max float64 `json:"max,omitempty"`

	// HalfCredit is the solve credit at which half the maximum redemption
	// applies (0 = reputation.DefaultHalfCredit).
	HalfCredit float64 `json:"half_credit,omitempty"`

	// HalfLife is the solve-credit decay half-life, state owned by the
	// pipeline's behavior tracker (0 = the registry tracker's half-life).
	// Not hot-swappable: changing it keys the pipeline onto a different
	// tracker.
	HalfLife Duration `json:"half_life,omitempty"`
}

// validate rejects malformed redeem sections.
func (r *RedeemSpec) validate(pipeline string) error {
	switch {
	case r.Max < 0:
		return fmt.Errorf("control: pipeline %q redeem: negative max", pipeline)
	case r.HalfCredit < 0:
		return fmt.Errorf("control: pipeline %q redeem: negative half-credit", pipeline)
	case r.HalfLife < 0:
		return fmt.Errorf("control: pipeline %q redeem: negative half-life", pipeline)
	}
	return nil
}

// halfLife reports the section's half-life, tolerating a nil receiver.
func (r *RedeemSpec) halfLife() Duration {
	if r == nil {
		return 0
	}
	return r.HalfLife
}

// BufferSpec is a pipeline's evidence write-back section: the per-shard
// buffer size bound and the background flush interval. In the text DSL it
// is an `evidence-buffer <size> <interval>` line.
type BufferSpec struct {
	Size     int      `json:"size"`
	Interval Duration `json:"interval"`
}

// validate rejects malformed buffer sections (mirroring core.New's checks
// so the error carries the pipeline name at parse time, not build time).
func (b *BufferSpec) validate(pipeline string) error {
	switch {
	case b.Size < 2:
		return fmt.Errorf("control: pipeline %q evidence-buffer: size %d below minimum 2", pipeline, b.Size)
	case b.Interval <= 0:
		return fmt.Errorf("control: pipeline %q evidence-buffer: non-positive interval %v", pipeline, time.Duration(b.Interval))
	}
	return nil
}

// ObserveSpec is a pipeline's observability section. In the text DSL it
// is a single line of parenthesized groups:
//
//	observe trace(sample=1024, ring=256)
//
// Trace samples one decision in TraceSample (rounded up to a power of
// two so the sampling draw is one atomic add and a mask) into a
// lock-free ring of TraceRing records (also rounded to a power of two).
type ObserveSpec struct {
	// TraceSample is the decision sampling rate: one trace record per
	// TraceSample decisions (0 = obs.DefaultTraceSample, 1 = every
	// decision).
	TraceSample int `json:"trace_sample,omitempty"`

	// TraceRing is the trace ring capacity in records
	// (0 = obs.DefaultTraceRingSize).
	TraceRing int `json:"trace_ring,omitempty"`
}

// validate rejects malformed observe sections.
func (o *ObserveSpec) validate(pipeline string) error {
	switch {
	case o.TraceSample < 0:
		return fmt.Errorf("control: pipeline %q observe: negative trace sample", pipeline)
	case o.TraceRing < 0:
		return fmt.Errorf("control: pipeline %q observe: negative trace ring", pipeline)
	}
	return nil
}

// effective resolves the section to the trace parameters its ring runs
// with: a zero takes the obs default, then obs rounds both up to powers
// of two.
func (o ObserveSpec) effective() ObserveSpec {
	if o.TraceSample == 0 {
		o.TraceSample = obs.DefaultTraceSample
	}
	if o.TraceRing == 0 {
		o.TraceRing = obs.DefaultTraceRingSize
	}
	o.TraceSample, o.TraceRing = obs.TraceRingShape(o.TraceSample, o.TraceRing)
	return o
}

// ClusterSpec is a pipeline's distributed-defense section. In the text
// DSL it is a single line of parenthesized groups, each optional:
//
//	cluster peers(http://10.0.0.2:9100/cluster/edge, …) exchange(1s) filter(bits=1048576, hashes=4)
//
// Peers lists the exchange endpoints this node pulls frames from (its
// partial view of the fleet — gossip converges transitively, so every
// node need not list every other). Exchange is the pull interval, the
// bounded staleness of fleet knowledge. Filter declares the Bloom
// geometry, which all fleet members must share for their rings to merge.
// Delta (delta(every=<k>)) turns the node's pulls into delta pulls —
// only evidence rows changed since the last pull — with a full-frame
// anti-entropy pull every kth exchange; omitted, every pull is a full
// frame.
type ClusterSpec struct {
	Peers        []string `json:"peers,omitempty"`
	Exchange     Duration `json:"exchange,omitempty"`
	FilterBits   int      `json:"filter_bits,omitempty"`
	FilterHashes int      `json:"filter_hashes,omitempty"`
	DeltaEvery   int      `json:"delta_every,omitempty"`
}

// validate rejects malformed cluster sections.
func (c *ClusterSpec) validate(pipeline string) error {
	switch {
	case c.Exchange < 0:
		return fmt.Errorf("control: pipeline %q cluster: negative exchange interval", pipeline)
	case c.FilterBits != 0 && (c.FilterBits < 64 || c.FilterBits&(c.FilterBits-1) != 0):
		return fmt.Errorf("control: pipeline %q cluster: filter bits %d must be a power of two ≥ 64", pipeline, c.FilterBits)
	case c.FilterHashes < 0 || c.FilterHashes > 16:
		return fmt.Errorf("control: pipeline %q cluster: filter hashes %d outside [0, 16]", pipeline, c.FilterHashes)
	case c.DeltaEvery < 0:
		return fmt.Errorf("control: pipeline %q cluster: negative delta interval %d", pipeline, c.DeltaEvery)
	}
	for _, p := range c.Peers {
		if strings.TrimSpace(p) == "" {
			return fmt.Errorf("control: pipeline %q cluster: empty peer URL", pipeline)
		}
	}
	return nil
}

// AdaptSpec is a pipeline's adaptive-defense section: the signal-plane
// shape plus the escalation ladder, in the declarative rule grammar (see
// feedback.ParseRule). In the text DSL these are `adapt <setting>` lines
// inside the pipeline block.
type AdaptSpec struct {
	// Interval is the controller's step cadence (0 = 1s).
	Interval Duration `json:"interval,omitempty"`

	// Capacity is the decision rate (decisions/s) treated as full load
	// for the "load" signal — and for load-adaptive policies via
	// load-shift. 0 pins load to 0.
	Capacity float64 `json:"capacity,omitempty"`

	// Hard marks challenges at or above this difficulty as "hard" for the
	// hard_solve_frac false-positive proxy (0 = 12).
	Hard int `json:"hard,omitempty"`

	// Window is the sliding-window length of the signal estimators, in
	// controller steps (0 = 10).
	Window int `json:"window,omitempty"`

	// LoadShift, when positive, wraps every policy the pipeline compiles
	// (the declared one and each escalation rung) in a load-adaptive
	// shift of up to this many difficulty levels at full load, fed by the
	// signal plane — the spec-addressable form of policy.NewLoadAdaptive.
	LoadShift int `json:"load_shift,omitempty"`

	// Rules is the escalation ladder in level order:
	// "escalate(when=<cond>, policy=<spec>[, hold=<dur>][, after=<n>][, unless=<cond>])".
	Rules []string `json:"rules,omitempty"`
}

// validate rejects malformed adapt sections.
func (a *AdaptSpec) validate(pipeline string) error {
	switch {
	case a.Interval < 0:
		return fmt.Errorf("control: pipeline %q adapt: negative interval", pipeline)
	case a.Capacity < 0:
		return fmt.Errorf("control: pipeline %q adapt: negative capacity", pipeline)
	case a.Hard < 0:
		return fmt.Errorf("control: pipeline %q adapt: negative hard difficulty", pipeline)
	case a.Window < 0:
		return fmt.Errorf("control: pipeline %q adapt: negative window", pipeline)
	case a.LoadShift < 0:
		return fmt.Errorf("control: pipeline %q adapt: negative load-shift", pipeline)
	case len(a.Rules) == 0 && a.LoadShift == 0:
		return fmt.Errorf("control: pipeline %q adapt: declares neither escalate rules nor load-shift", pipeline)
	}
	// The load signal is rate/capacity; without a declared capacity it is
	// pinned to 0, so a load-shift or load-conditioned rule would be
	// silently inert — reject rather than deploy a defense that can never
	// engage.
	needsLoad := a.LoadShift > 0
	for _, spec := range a.Rules {
		rule, err := feedback.ParseRule(spec)
		if err != nil {
			return fmt.Errorf("control: pipeline %q adapt: %w", pipeline, err)
		}
		if rule.When.Signal == feedback.SignalLoad ||
			(rule.Unless != nil && rule.Unless.Signal == feedback.SignalLoad) {
			needsLoad = true
		}
	}
	if needsLoad && a.Capacity <= 0 {
		return fmt.Errorf("control: pipeline %q adapt: load-shift and load-conditioned rules require `adapt capacity <decisions/s>`", pipeline)
	}
	return nil
}

// RouteSpec maps one request class onto a pipeline. Exactly one of
// PathPrefix and Tenant must be set.
type RouteSpec struct {
	// PathPrefix routes requests whose path starts with it; the longest
	// matching prefix wins. "/" is the catch-all.
	PathPrefix string `json:"path_prefix,omitempty"`

	// Tenant routes requests carrying this tenant key (e.g. from a
	// middleware-extracted header); tenant routes win over path routes.
	Tenant string `json:"tenant,omitempty"`

	// Pipeline names the PipelineSpec that serves the class.
	Pipeline string `json:"pipeline"`
}

// DeploymentSpec is the full control-plane document: named pipelines plus
// the routes mapping request classes onto them. A single-pipeline spec may
// omit Routes (an implicit "/" catch-all to that pipeline is assumed);
// otherwise a "/" catch-all route is required so no request can miss.
type DeploymentSpec struct {
	Pipelines []PipelineSpec `json:"pipelines"`
	Routes    []RouteSpec    `json:"routes,omitempty"`
}

// Pipeline looks up a pipeline spec by name.
func (d *DeploymentSpec) Pipeline(name string) (PipelineSpec, bool) {
	for _, p := range d.Pipelines {
		if p.Name == name {
			return p, true
		}
	}
	return PipelineSpec{}, false
}

// Validate rejects structurally inconsistent deployments: duplicate or
// missing names, routes onto unknown pipelines, no catch-all, and
// per-pipeline field errors.
func (d *DeploymentSpec) Validate() error {
	if len(d.Pipelines) == 0 {
		return fmt.Errorf("control: deployment declares no pipelines")
	}
	seen := make(map[string]bool, len(d.Pipelines))
	for i := range d.Pipelines {
		p := &d.Pipelines[i]
		if err := p.validate(); err != nil {
			return err
		}
		if seen[p.Name] {
			return fmt.Errorf("control: duplicate pipeline %q", p.Name)
		}
		seen[p.Name] = true
	}
	if len(d.Routes) == 0 {
		if len(d.Pipelines) > 1 {
			return fmt.Errorf("control: %d pipelines but no routes; add route lines (including a \"/\" catch-all)", len(d.Pipelines))
		}
		return nil
	}
	catchAll := false
	routed := make(map[string]bool, len(d.Routes))
	for _, r := range d.Routes {
		switch {
		case r.PathPrefix == "" && r.Tenant == "":
			return fmt.Errorf("control: route onto %q has neither path prefix nor tenant", r.Pipeline)
		case r.PathPrefix != "" && r.Tenant != "":
			return fmt.Errorf("control: route onto %q sets both path prefix and tenant; use two routes", r.Pipeline)
		case r.PathPrefix != "" && !strings.HasPrefix(r.PathPrefix, "/"):
			return fmt.Errorf("control: path prefix %q must start with /", r.PathPrefix)
		}
		if !seen[r.Pipeline] {
			return fmt.Errorf("control: route %s targets unknown pipeline %q", routeLabel(r), r.Pipeline)
		}
		key := "path:" + r.PathPrefix
		if r.Tenant != "" {
			key = "tenant:" + r.Tenant
		}
		if routed[key] {
			return fmt.Errorf("control: duplicate route %s", routeLabel(r))
		}
		routed[key] = true
		if r.PathPrefix == "/" {
			catchAll = true
		}
	}
	if !catchAll {
		return fmt.Errorf("control: no catch-all route; add `route / <pipeline>`")
	}
	return nil
}

// routeLabel renders a route for error messages.
func routeLabel(r RouteSpec) string {
	if r.Tenant != "" {
		return fmt.Sprintf("tenant %q", r.Tenant)
	}
	return fmt.Sprintf("path %q", r.PathPrefix)
}

// validate rejects malformed pipeline specs.
func (p *PipelineSpec) validate() error {
	if p.Name == "" {
		return fmt.Errorf("control: pipeline without a name")
	}
	if p.Scorer == "" {
		return fmt.Errorf("control: pipeline %q names no scorer", p.Name)
	}
	switch {
	case p.Policy == "" && p.PolicyRules == "":
		return fmt.Errorf("control: pipeline %q names no policy (add `policy <spec>` or when/default rule lines)", p.Name)
	case p.Policy != "" && p.PolicyRules != "":
		return fmt.Errorf("control: pipeline %q declares both a policy spec and inline rules; pick one", p.Name)
	}
	if p.TTL < 0 {
		return fmt.Errorf("control: pipeline %q has negative ttl", p.Name)
	}
	if p.TrackerWindow < 0 {
		return fmt.Errorf("control: pipeline %q has negative window", p.Name)
	}
	if p.MaxDifficulty < 0 {
		return fmt.Errorf("control: pipeline %q has negative max-difficulty", p.Name)
	}
	if p.AuthCacheSlots < 0 {
		return fmt.Errorf("control: pipeline %q has negative auth-cache", p.Name)
	}
	if p.ClockSkew < 0 {
		return fmt.Errorf("control: pipeline %q has negative clock-skew", p.Name)
	}
	if _, err := puzzle.ParseBackendSpec(p.Puzzle); err != nil {
		return fmt.Errorf("control: pipeline %q puzzle: %w", p.Name, err)
	}
	if p.FailClosedScore != nil && (*p.FailClosedScore < 0 || *p.FailClosedScore > 10) {
		return fmt.Errorf("control: pipeline %q fail-closed score %v outside [0, 10]", p.Name, *p.FailClosedScore)
	}
	if p.Adapt != nil {
		if err := p.Adapt.validate(p.Name); err != nil {
			return err
		}
	}
	if p.Redeem != nil {
		if err := p.Redeem.validate(p.Name); err != nil {
			return err
		}
	}
	if p.EvidenceBuffer != nil {
		if err := p.EvidenceBuffer.validate(p.Name); err != nil {
			return err
		}
	}
	if p.Cluster != nil {
		if err := p.Cluster.validate(p.Name); err != nil {
			return err
		}
	}
	if p.Observe != nil {
		if err := p.Observe.validate(p.Name); err != nil {
			return err
		}
	}
	return nil
}

// canonicalPuzzle resolves a puzzle backend spec to its canonical render,
// so comparisons treat "" , "hashcash" and "hashcash(bits=64)" as the one
// backend they all name. Specs that fail to parse compare raw; validate()
// already rejected them everywhere it matters.
func canonicalPuzzle(spec string) string {
	b, err := puzzle.ParseBackendSpec(spec)
	if err != nil {
		return spec
	}
	return b.Spec()
}

// ParseDeployment parses a deployment spec in either form: JSON (first
// non-space byte '{') or the line-oriented text DSL. SPEC.md's "Text
// grammar" block is the text form's reference; a test holds it to the
// statements table below.
func ParseDeployment(src string) (*DeploymentSpec, error) {
	trimmed := strings.TrimSpace(src)
	if strings.HasPrefix(trimmed, "{") {
		var d DeploymentSpec
		dec := json.NewDecoder(strings.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&d); err != nil {
			return nil, fmt.Errorf("control: parse JSON spec: %w", err)
		}
		if dec.More() {
			// Trailing content (e.g. two concatenated specs) would mean
			// silently applying only the first document.
			return nil, fmt.Errorf("control: parse JSON spec: trailing content after the deployment document")
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		return &d, nil
	}
	return parseDeploymentText(src)
}

// parseDeploymentText compiles the text DSL form. The top-level
// statements (pipeline, route, tenant) are handled here; every line
// inside a pipeline block is a row of the statements table.
func parseDeploymentText(src string) (*DeploymentSpec, error) {
	d := &DeploymentSpec{}
	var cur *PipelineSpec // open pipeline block, nil at top level
	var seen map[string]bool
	closeBlock := func() {
		if cur != nil {
			d.Pipelines = append(d.Pipelines, *cur)
			cur, seen = nil, nil
		}
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		stmt, args := fields[0], fields[1:]
		// The redeem statement's parameter list may attach directly to the
		// keyword — redeem(max=6, …) — so the keyword needs splitting off
		// before dispatch.
		if stmt != "redeem" && strings.HasPrefix(stmt, "redeem(") {
			args = append([]string{strings.TrimPrefix(stmt, "redeem")}, args...)
			stmt = "redeem"
		}
		switch stmt {
		case "pipeline":
			closeBlock()
			if len(args) != 1 {
				return nil, fmt.Errorf("control: spec line %d: want 'pipeline <name>'", lineNo+1)
			}
			cur = &PipelineSpec{Name: args[0]}
			seen = make(map[string]bool)
		case "route", "tenant":
			closeBlock()
			if len(args) != 2 {
				return nil, fmt.Errorf("control: spec line %d: want '%s <%s> <pipeline>'",
					lineNo+1, stmt, map[string]string{"route": "prefix", "tenant": "key"}[stmt])
			}
			r := RouteSpec{Pipeline: args[1]}
			if stmt == "route" {
				r.PathPrefix = args[0]
			} else {
				r.Tenant = args[0]
			}
			d.Routes = append(d.Routes, r)
		default:
			if stmt != "adapt" && statementIndex[stmt] == nil {
				return nil, fmt.Errorf("control: spec line %d: unknown statement %q", lineNo+1, stmt)
			}
			if cur == nil {
				return nil, fmt.Errorf("control: spec line %d: %q outside a pipeline block", lineNo+1, stmt)
			}
			if err := cur.fold(stmt, args, line, seen); err != nil {
				return nil, fmt.Errorf("control: spec line %d: %w", lineNo+1, err)
			}
		}
	}
	closeBlock()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// A statement is one row of the pipeline-statement table: a line inside
// a pipeline block. The table is the block language's single
// declaration — text dispatch, the duplicate-statement check, specEqual,
// swappableEqual and the trace-ring replacement decision all read it.
type statement struct {
	// keyword opens the line; adapt settings take two words
	// ("adapt interval").
	keyword string

	// repeat lets a block hold the statement more than once (rule lines
	// and escalation rungs accumulate in order); any other statement
	// errors on repetition, so a merge artifact fails loudly instead of
	// last-wins.
	repeat bool

	// fold parses the arguments after the keyword into the spec; line is
	// the whole trimmed line.
	fold func(p *PipelineSpec, args []string, line string) error

	// hot and rebuild report the statement's effective value by swap
	// class: Pipeline.Apply installs a changed hot value in place, while
	// a changed rebuild value needs a fresh pipeline (Gatekeeper.Apply
	// builds one). Values compare with reflect.DeepEqual, an absent
	// section is nil, and each is normalised to what the pipeline runs:
	// the canonical puzzle spelling, nil for an empty list, the trace
	// parameters after default substitution and power-of-two rounding.
	// redeem has both: its magnitude is scorer state, its half-life
	// tracker state.
	hot, rebuild func(p *PipelineSpec) any
}

// swapClass selects the value slot a field statement declares.
type swapClass int

const (
	hotSwap swapClass = iota
	rebuildOnly
)

// statements is the pipeline-block language, in SPEC.md's order.
var statements = []statement{
	field("scorer", hotSwap, func(p *PipelineSpec) any { return &p.Scorer }),
	field("policy", hotSwap, func(p *PipelineSpec) any { return &p.Policy }),
	{keyword: "when", repeat: true, fold: foldRule, hot: policyRules},
	{keyword: "default", repeat: true, fold: foldRule, hot: policyRules},
	field("source", hotSwap, func(p *PipelineSpec) any { return &p.Source }),
	{keyword: "puzzle", fold: setField("puzzle", func(p *PipelineSpec) any { return &p.Puzzle }),
		rebuild: func(p *PipelineSpec) any { return canonicalPuzzle(p.Puzzle) }},
	field("ttl", rebuildOnly, func(p *PipelineSpec) any { return &p.TTL }),
	field("max-difficulty", rebuildOnly, func(p *PipelineSpec) any { return &p.MaxDifficulty }),
	field("bypass-below", hotSwap, func(p *PipelineSpec) any { return &p.BypassBelow }),
	field("fail-closed", hotSwap, func(p *PipelineSpec) any { return &p.FailClosedScore }),
	field("replay-cache", rebuildOnly, func(p *PipelineSpec) any { return &p.ReplayCache }),
	field("auth-cache", rebuildOnly, func(p *PipelineSpec) any { return &p.AuthCacheSlots }),
	field("clock-skew", rebuildOnly, func(p *PipelineSpec) any { return &p.ClockSkew }),
	field("window", rebuildOnly, func(p *PipelineSpec) any { return &p.TrackerWindow }),
	{keyword: "redeem", fold: foldRedeem,
		hot:     func(p *PipelineSpec) any { return section(p.Redeem, func(r *RedeemSpec) { r.HalfLife = 0 }) },
		rebuild: func(p *PipelineSpec) any { return struct{ HalfLife Duration }{p.Redeem.halfLife()} }},
	{keyword: "evidence-buffer", fold: foldBuffer,
		rebuild: func(p *PipelineSpec) any { return section(p.EvidenceBuffer, nil) }},
	{keyword: "cluster", fold: foldCluster, rebuild: func(p *PipelineSpec) any {
		return section(p.Cluster, func(c *ClusterSpec) { c.Peers = append([]string(nil), c.Peers...) })
	}},
	{keyword: "observe", fold: foldObserve,
		hot: func(p *PipelineSpec) any { return section(p.Observe, func(o *ObserveSpec) { *o = o.effective() }) }},
	{keyword: "adapt escalate", repeat: true, fold: foldEscalate, hot: func(p *PipelineSpec) any {
		return section(p.Adapt, func(a *AdaptSpec) { *a = AdaptSpec{Rules: append([]string(nil), a.Rules...)} })
	}},
	field("adapt interval", hotSwap, adaptField(func(a *AdaptSpec) any { return &a.Interval })),
	field("adapt capacity", hotSwap, adaptField(func(a *AdaptSpec) any { return &a.Capacity })),
	field("adapt hard", hotSwap, adaptField(func(a *AdaptSpec) any { return &a.Hard })),
	field("adapt window", hotSwap, adaptField(func(a *AdaptSpec) any { return &a.Window })),
	field("adapt load-shift", hotSwap, adaptField(func(a *AdaptSpec) any { return &a.LoadShift })),
}

// statementIndex maps each keyword to its table row.
var statementIndex = func() map[string]*statement {
	m := make(map[string]*statement, len(statements))
	for i := range statements {
		m[statements[i].keyword] = &statements[i]
	}
	return m
}()

// fold applies one pipeline-block line. seen records the non-repeatable
// statements the block already set.
func (p *PipelineSpec) fold(stmt string, args []string, line string, seen map[string]bool) error {
	if stmt == "adapt" {
		switch {
		case len(args) == 0:
			return fmt.Errorf("want 'adapt <setting…>'")
		case strings.HasPrefix(strings.Join(args, " "), "escalate"):
			stmt = "adapt escalate"
		default:
			stmt, args = "adapt "+args[0], args[1:]
		}
	}
	s := statementIndex[stmt]
	if s == nil {
		var settings []string
		for _, s := range statements {
			if sub, ok := strings.CutPrefix(s.keyword, "adapt "); ok {
				settings = append(settings, sub)
			}
		}
		return fmt.Errorf("unknown adapt setting %q (want %s)", strings.TrimPrefix(stmt, "adapt "), strings.Join(settings, ", "))
	}
	if !s.repeat {
		if seen[stmt] {
			return fmt.Errorf("duplicate %s", stmt)
		}
		seen[stmt] = true
	}
	if strings.HasPrefix(stmt, "adapt ") && p.Adapt == nil {
		p.Adapt = &AdaptSpec{}
	}
	return s.fold(p, args, line)
}

// specEqual reports whether two (defaults-resolved) specs are identical
// in effect. Applies skip identical specs entirely, so a reload that
// touches one pipeline never resets another pipeline's stateful
// components (e.g. a rate scorer's accumulated window).
func specEqual(a, b PipelineSpec) bool {
	if a.Name != b.Name {
		return false
	}
	for i := range statements {
		s := &statements[i]
		if !sameValue(s.hot, &a, &b) || !sameValue(s.rebuild, &a, &b) {
			return false
		}
	}
	return true
}

// swappableEqual reports whether only hot-swappable values differ
// between the two specs — the condition under which Apply may proceed
// without a rebuild. The error names the first rebuild-only change.
func (p PipelineSpec) swappableEqual(q PipelineSpec) error {
	for _, s := range statements {
		if s.rebuild == nil {
			continue
		}
		if from, to := s.rebuild(&p), s.rebuild(&q); !reflect.DeepEqual(from, to) {
			return fmt.Errorf("%s %+v → %+v", s.keyword, from, to)
		}
	}
	return nil
}

// sameValue compares one statement value slot (nil: not declared) of
// two specs.
func sameValue(v func(*PipelineSpec) any, a, b *PipelineSpec) bool {
	return v == nil || reflect.DeepEqual(v(a), v(b))
}

// field declares a statement that sets one spec field (setField) and
// compares the field's value in the given swap class.
func field(keyword string, class swapClass, at func(p *PipelineSpec) any) statement {
	value := func(p *PipelineSpec) any {
		if dst := at(p); dst != nil {
			return reflect.ValueOf(dst).Elem().Interface()
		}
		return nil
	}
	s := statement{keyword: keyword, fold: setField(keyword, at)}
	if class == hotSwap {
		s.hot = value
	} else {
		s.rebuild = value
	}
	return s
}

// setField folds a statement into the spec field at points to (nil
// while the field's section is absent). A string field takes the whole
// argument text (component specs may contain spaces: policy3(epsilon=2.5,
// seed=1)); any other takes exactly one argument.
func setField(keyword string, at func(p *PipelineSpec) any) func(*PipelineSpec, []string, string) error {
	return func(p *PipelineSpec, args []string, _ string) error {
		dst := at(p)
		if s, ok := dst.(*string); ok {
			if *s = strings.Join(args, " "); *s == "" {
				return fmt.Errorf("want '%s <spec>'", keyword)
			}
			return nil
		}
		if len(args) != 1 {
			return fmt.Errorf("want '%s <%s>'", keyword, argName(dst))
		}
		if err := parseInto(dst, args[0]); err != nil {
			return fmt.Errorf("%s: %w", keyword, err)
		}
		return nil
	}
}

// section is an optional section's compared value: nil when absent,
// else a copy normalised by norm (nil: as declared).
func section[T any](s *T, norm func(*T)) any {
	if s == nil {
		return nil
	}
	v := *s
	if norm != nil {
		norm(&v)
	}
	return v
}

// adaptField lifts an adapt-section field accessor to the pipeline spec
// (nil without an adapt section; fold creates the section first).
func adaptField(at func(a *AdaptSpec) any) func(*PipelineSpec) any {
	return func(p *PipelineSpec) any {
		if p.Adapt == nil {
			return nil
		}
		return at(p.Adapt)
	}
}

// argName is the grammar placeholder for a field statement's argument.
func argName(dst any) string {
	switch dst.(type) {
	case *Duration:
		return "duration"
	case **float64:
		return "score"
	case *float64:
		return "rate"
	}
	return "n"
}

// parseInto parses s into the scalar dst points at.
func parseInto(dst any, s string) error {
	var err error
	switch dst := dst.(type) {
	case *int:
		*dst, err = strconv.Atoi(s)
	case *float64:
		*dst, err = strconv.ParseFloat(s, 64)
	case **float64:
		v, e := strconv.ParseFloat(s, 64)
		*dst, err = &v, e
	case *Duration:
		d, e := time.ParseDuration(s)
		*dst, err = Duration(d), e
	default:
		panic(fmt.Sprintf("control: no parser for %T", dst))
	}
	return err
}

// policyRules is the compared value of the inline rule lines.
func policyRules(p *PipelineSpec) any { return p.PolicyRules }

// foldRule appends an inline policy-rule line (when/default) verbatim.
func foldRule(p *PipelineSpec, _ []string, line string) error {
	if p.PolicyRules != "" {
		p.PolicyRules += "\n"
	}
	p.PolicyRules += line
	return nil
}

// foldEscalate appends one rung to the adapt ladder, in declaration order
// (that order is the ladder), validating it eagerly so the error carries
// the spec line number.
func foldEscalate(p *PipelineSpec, args []string, _ string) error {
	rule := strings.Join(args, " ")
	if _, err := feedback.ParseRule(rule); err != nil {
		return err
	}
	p.Adapt.Rules = append(p.Adapt.Rules, rule)
	return nil
}

// foldRedeem parses redeem's optional parenthesized parameter list
// ("(max=6, half-credit=26, half-life=5m)"; the parentheses may be
// omitted). An empty list keeps every default.
func foldRedeem(p *PipelineSpec, args []string, _ string) error {
	arg := strings.Join(args, " ")
	if strings.HasPrefix(arg, "(") {
		if !strings.HasSuffix(arg, ")") {
			return fmt.Errorf("redeem: unclosed parameter list %q", arg)
		}
		arg = arg[1 : len(arg)-1]
	}
	r := &RedeemSpec{}
	if err := kv(part{"max", into(&r.Max)}, part{"half-credit", into(&r.HalfCredit)}, part{"half-life", into(&r.HalfLife)})(arg); err != nil {
		return fmt.Errorf("redeem: %w", err)
	}
	p.Redeem = r
	return nil
}

// foldBuffer parses `evidence-buffer <size> <interval>`.
func foldBuffer(p *PipelineSpec, args []string, _ string) error {
	if len(args) != 2 {
		return fmt.Errorf("want 'evidence-buffer <size> <interval>'")
	}
	b := &BufferSpec{}
	if err := parseInto(&b.Size, args[0]); err != nil {
		return fmt.Errorf("evidence-buffer size: %w", err)
	}
	if err := parseInto(&b.Interval, args[1]); err != nil {
		return fmt.Errorf("evidence-buffer interval: %w", err)
	}
	p.EvidenceBuffer = b
	return nil
}

// foldCluster parses cluster's groups, each optional and in any order. A
// bare `cluster` line enables the plane with every default (no peers:
// the node only serves its own frame endpoint until peers pull from it).
func foldCluster(p *PipelineSpec, args []string, _ string) error {
	c := &ClusterSpec{}
	err := parseGroups(strings.Join(args, " "), false,
		part{"peers", func(body string) error {
			c.Peers = append(c.Peers, strings.FieldsFunc(body, isListSep)...)
			return nil
		}},
		part{"exchange", into(&c.Exchange)},
		part{"filter", kv(part{"bits", into(&c.FilterBits)}, part{"hashes", into(&c.FilterHashes)})},
		part{"delta", kv(part{"every", into(&c.DeltaEvery)})},
	)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	p.Cluster = c
	return nil
}

// foldObserve parses observe's groups: currently the single group
// trace(sample=<n>, ring=<n>), both parameters optional (zero keeps the
// obs package's default). A bare `observe trace` or `observe trace()`
// enables tracing at the defaults.
func foldObserve(p *PipelineSpec, args []string, _ string) error {
	if len(args) == 0 {
		return fmt.Errorf("observe: want 'observe trace(sample=<n>, ring=<n>)'")
	}
	o := &ObserveSpec{}
	err := parseGroups(strings.Join(args, " "), true,
		part{"trace", kv(part{"sample", into(&o.TraceSample)}, part{"ring", into(&o.TraceRing)})})
	if err != nil {
		return fmt.Errorf("observe: %w", err)
	}
	p.Observe = o
	return nil
}

// A part is one named piece of a section statement — a group such as
// filter(…) or a key such as bits= — and the parser of its text.
type part struct {
	name  string
	parse func(string) error
}

// into is the part parser that parses its text into the scalar dst
// points at.
func into(dst any) func(string) error {
	return func(s string) error { return parseInto(dst, s) }
}

// lookup finds the part called name among parts.
func lookup(parts []part, kind, name string) (part, error) {
	names := make([]string, len(parts))
	for i, pt := range parts {
		if pt.name == name {
			return pt, nil
		}
		names[i] = pt.name
	}
	return part{}, fmt.Errorf("unknown %s %q (want %s)", kind, name, strings.Join(names, ", "))
}

// parseGroups parses a "name(body) name(body) …" list, handing each
// group's body to its part; a group may appear at most once. With bare
// set, a last group may omit its parentheses (an empty body).
func parseGroups(rest string, bare bool, groups ...part) error {
	seen := map[string]bool{}
	for rest = strings.TrimSpace(rest); rest != ""; {
		name, body := rest, ""
		open := strings.IndexByte(rest, '(')
		switch {
		case open < 0 && bare:
			rest = ""
		case open <= 0:
			return fmt.Errorf("want '<group>(…)', got %q", rest)
		default:
			end := strings.IndexByte(rest, ')')
			if end < open {
				return fmt.Errorf("unclosed group %q", strings.TrimSpace(rest[:open]))
			}
			name, body, rest = strings.TrimSpace(rest[:open]), strings.TrimSpace(rest[open+1:end]), strings.TrimSpace(rest[end+1:])
		}
		if seen[name] {
			return fmt.Errorf("duplicate group %q", name)
		}
		seen[name] = true
		g, err := lookup(groups, "group", name)
		if err != nil {
			return err
		}
		if err := g.parse(body); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// kv is the part parser for a comma- or space-separated k=v list; a
// repeated key keeps its last value.
func kv(keys ...part) func(string) error {
	return func(list string) error {
		for _, tok := range strings.FieldsFunc(list, isListSep) {
			k, v, ok := strings.Cut(tok, "=")
			if !ok || v == "" {
				return fmt.Errorf("want k=v, got %q", tok)
			}
			key, err := lookup(keys, "parameter", k)
			if err != nil {
				return err
			}
			if err := key.parse(v); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
		}
		return nil
	}
}

// isListSep splits k=v and peer lists on commas and spaces.
func isListSep(r rune) bool { return r == ',' || r == ' ' }

// Marshal renders the deployment in canonical JSON (the form the admin
// /spec endpoint serves and operators can round-trip through
// ParseDeployment). Deliberately not named MarshalText: encoding/json
// would treat that as a TextMarshaler implementation and recurse.
func (d *DeploymentSpec) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
