package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/sweep"
	"repro/internal/xcheck"
)

// Workload names, one per phase of a run.
const (
	wlGrid   = "paper-grid"
	wlScale  = "scale-solve"
	wlServe  = "serve-open"
	wlOracle = "oracle"
)

var workloads = []string{wlGrid, wlScale, wlServe, wlOracle}

// defaultSeed is the committed gangcheck corpus seed. Companion passes
// (the three phases a run does not focus on) always use it, so their
// figures do not move with the workload seed.
const defaultSeed = 1996

// Inputs is everything a run feeds the program, generated from the
// workload seed alone. The focused phase gets inputs drawn from the seed
// and sized by the run length; the other three get small fixed companion
// inputs drawn from defaultSeed.
type Inputs struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Grid     []sweep.Trial    `json:"grid"`
	Scale    []sweep.Scenario `json:"scale"`
	Serve    ServePlan        `json:"serve"`
	Oracle   []xcheck.Case    `json:"oracle"`
	// OraclePasses is how many times the oracle cases are checked.
	OraclePasses int `json:"oraclePasses"`
}

// ServePlan is the open-loop request schedule: one step per rate on the
// fixed ladder, each a Poisson stream of a fixed number of requests.
type ServePlan struct {
	Steps []ServeStep `json:"steps"`
}

// ServeStep is one rate of the ladder.
type ServeStep struct {
	Rate     float64        `json:"rate"`
	Requests []ServeRequest `json:"requests"`
}

// ServeRequest is one POST /v1/solve: its due time from the start of
// the step, its kind in the mix, and the exact body sent.
type ServeRequest struct {
	Due  float64         `json:"due"` // seconds after the step starts
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// Request kinds of the serve-open mix.
const (
	kindNovel      = "novel"      // new point in the shared neighbourhood: refill + warm solve
	kindRepeat     = "repeat"     // exact repeat of an earlier body: answer-store read
	kindStructural = "structural" // changed phase structure: cold chain build
)

// serveTraffic is the serve-open traffic. No recorded gangserved traffic
// exists to derive it from, so every value in it is an assumption, with
// its reason beside it. It is kept in this one table so the workload can
// be re-based on a recorded trace once one is committed.
var serveTraffic = struct {
	// Percent of each step that resends an earlier body exactly (memo
	// reads) and that changes a tenant's phase structure (cold builds);
	// the rest, 30%, are novel points (refill plus warm solve). Hits and
	// misses weigh about the same, so a change that speeds one up at the
	// other's cost shows in the latency figures.
	repeatPct, structuralPct int
	// The fixed rates whose latency is reported, requests per second.
	// The mix costs about 10 ms a request, so at these rates the two
	// shards are busy a tenth and a fifth of the time: latency is what a
	// request costs rather than the queue in front of it, which on a
	// shared machine magnifies every change in its speed.
	low, high float64
	// The capacity ladder, requests per second: from above the high rate
	// to past a 2-CPU machine's capacity on this mix (170–250/s, with
	// the machine's speed).
	ladder []float64
	// The neighbourhood's centre, arrival rate and quantum mean, each
	// jittered by jitter: a mid-load point of the paper's grid, where a
	// solve takes tens of rounds, and every novel point a distinct key
	// close enough to the last for a warm refill.
	lambda, quantum, jitter float64
}{
	repeatPct: 35, structuralPct: 35,
	low: 20, high: 40,
	ladder: []float64{60, 80, 100, 120, 140, 160, 180, 200, 225, 250, 275, 300},
	lambda: 0.5, quantum: 1, jitter: 0.05,
}

// The serve-open plan: rounds alternating the low and high rate, and,
// in a focused run, serveSweeps climbs of the ladder spread among them.
// Every step of the plan is played, the ones past capacity too. A
// rate's figures pool the latencies of every step played at it.
const (
	serveTailLimitMs = 250
	serveRoundSize   = 40
	serveLadderSize  = 50
	serveSweeps      = 2
)

// Run sizes. A run does a fixed amount of work sized to take about
// --seconds on a 2-CPU machine: fixed work keeps `attempted` identical
// across runs and commits, so a failure share never moves with speed.
// A phase the run focuses on scales with --seconds; its companions are
// fixed, and sized so their figures spread less than a fifth of their
// median between quartiles over ten runs on a shared 2-CPU machine.
const (
	gridTrialsPerPass     = 20
	gridMainPasses        = 12 // per 10 s
	gridCompanionPasses   = 8
	scaleMainL8           = 1 // per 10 s
	scaleMainL4           = 5 // per 10 s
	scaleCompanionL4      = 8
	serveMainRounds       = 3 // per 10 s
	serveCompanionRounds  = 6
	oracleMainCases       = 16 // per 10 s
	oracleChunk           = 4
	oracleCompanion       = 3
	oracleCompanionPasses = 10
)

// stream is splitmix64: a tiny, version-independent seeded generator.
type stream struct{ s uint64 }

func newStream(seed int64, salt uint64) *stream {
	return &stream{s: uint64(seed)*0x9e3779b97f4a7c15 ^ salt*0xd1342543de82ef95}
}

func (r *stream) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *stream) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// jitter returns x scaled by a uniform factor in [1−w, 1+w].
func (r *stream) jitter(x, w float64) float64 { return x * (1 + w*(2*r.f64()-1)) }

func (r *stream) intn(n int) int { return int(r.next() % uint64(n)) }

// Generate builds the inputs of one run. The same (workload, seed,
// seconds) always gives byte-identical inputs.
func Generate(workload string, seed int64, seconds int) (*Inputs, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds %d, want >= 1", seconds)
	}
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	in := &Inputs{Workload: workload, Seed: seed}
	pick := func(w string) (int64, bool) {
		if w == workload {
			return seed, true
		}
		return defaultSeed, false
	}

	scaled := func(perTen int) int { return max(1, perTen*seconds/10) }
	s, main := pick(wlGrid)
	passes := gridCompanionPasses
	if main {
		passes = max(3, scaled(gridMainPasses))
	}
	in.Grid = gridTrials(s, passes)

	s, main = pick(wlScale)
	l4, l8 := scaleCompanionL4, 0
	if main {
		l4, l8 = max(3, scaled(scaleMainL4)), scaled(scaleMainL8)
	}
	in.Scale = scaleScenarios(s, l4, l8)

	s, main = pick(wlServe)
	rounds, sweeps := serveCompanionRounds, 0
	if main {
		rounds, sweeps = scaled(serveMainRounds), serveSweeps
	}
	plan, err := servePlan(s, rounds, sweeps)
	if err != nil {
		return nil, err
	}
	in.Serve = plan

	s, main = pick(wlOracle)
	n := oracleCompanion
	in.OraclePasses = oracleCompanionPasses
	if main {
		n, in.OraclePasses = max(oracleCompanion+1, scaled(oracleMainCases)), 1
	}
	in.Oracle = oracleCases(s, n)
	return in, nil
}

// paperScenario is the paper's §5 machine: P = 8, four exponential
// classes with g = 1, 2, 4, 8 and μ = 0.5, 1, 2, 4, equal arrival
// rates λ (so total utilization is λ), a common quantum mean and a
// 0.01 context-switch overhead.
func paperScenario(lambda, quantum float64) sweep.Scenario {
	sc := sweep.Scenario{Processors: 8}
	for p, mu := range []float64{0.5, 1, 2, 4} {
		sc.Classes = append(sc.Classes, sweep.ClassSpec{
			Partition: 1 << p, Lambda: lambda, Mu: mu,
			QuantumMean: quantum, OverheadMean: 0.01,
		})
	}
	return sc
}

// gridTrials is the arrival-rate × quantum-length grid of the paper's
// figures, passes times over, each point jittered by ±2% so every
// trial is a distinct cold solve. Heavy traffic comes first in each
// pass: its trials take the most rounds, so the two workers finish a
// pass together instead of one idling behind a late long trial.
func gridTrials(seed int64, passes int) []sweep.Trial {
	r := newStream(seed, 1)
	var out []sweep.Trial
	for pass := 0; pass < passes; pass++ {
		for _, lam := range []float64{0.8, 0.6, 0.4, 0.2} {
			for _, q := range []float64{0.25, 0.5, 1, 2, 4} {
				l, qq := r.jitter(lam, 0.02), r.jitter(q, 0.02)
				out = append(out, sweep.Trial{
					Scenario: paperScenario(l, qq),
					Method:   sweep.MethodAnalytic,
					Point:    map[string]float64{"lambda": l, "quantum": qq, "pass": float64(pass)},
				})
			}
		}
	}
	return out
}

// scaleScenario is a P = 8 machine with l classes on partitions
// 2, 4, 8, 1, ... whose odd classes have Erlang-like (SCV 0.5)
// service; repeating blocks reach order 99 at l = 4 and 207 at l = 8.
func scaleScenario(l int, lambda float64) sweep.Scenario {
	sc := sweep.Scenario{Processors: 8}
	for p := 0; p < l; p++ {
		scv := 1.0
		if p%2 == 1 {
			scv = 0.5
		}
		sc.Classes = append(sc.Classes, sweep.ClassSpec{
			Partition: []int{2, 4, 8, 1}[p%4], Lambda: lambda, Mu: 1.5,
			QuantumMean: 1, OverheadMean: 0.01, ServiceSCV: scv,
		})
	}
	return sc
}

func scaleScenarios(seed int64, l4, l8 int) []sweep.Scenario {
	r := newStream(seed, 2)
	var out []sweep.Scenario
	for i := 0; i < l8; i++ {
		out = append(out, scaleScenario(8, r.jitter(0.12, 0.02)))
	}
	for i := 0; i < l4; i++ {
		out = append(out, scaleScenario(4, r.jitter(0.12, 0.02)))
	}
	return out
}

// serveScenario is a serve-open neighbourhood: a P = 8 machine with
// two classes on partitions 2 and 8 (μ = 1, 2), equal arrival rates and
// quantum means; shape sets the phase structure of class p.
func serveScenario(lambda, quantum float64, shape func(p int, c *sweep.ClassSpec)) sweep.Scenario {
	sc := sweep.Scenario{Processors: 8}
	for p, mu := range []float64{1, 2} {
		c := sweep.ClassSpec{
			Partition: 2 << (2 * p), Lambda: lambda, Mu: mu,
			QuantumMean: quantum, OverheadMean: 0.01,
		}
		shape(p, &c)
		sc.Classes = append(sc.Classes, c)
	}
	return sc
}

// Two tenants share the server, an assumption like serveTraffic (the
// fewest that load both shards): one all exponential, one whose class 0
// has Erlang-like (SCV 0.5) overheads. Their structural keys route to
// different shards of two. A structural change gives class 0 an
// Erlang-like quantum (routed with the first tenant) or class 1 bursty
// (SCV 2) arrivals (routed with the second), forcing a chain build on
// that shard and another when its tenant returns.
var (
	serveTenants = []func(int, *sweep.ClassSpec){
		func(int, *sweep.ClassSpec) {},
		func(p int, c *sweep.ClassSpec) {
			if p == 0 {
				c.OverheadSCV = 0.5
			}
		},
	}
	serveChanges = []func(int, *sweep.ClassSpec){
		func(p int, c *sweep.ClassSpec) {
			if p == 0 {
				c.QuantumSCV = 0.5
			}
		},
		func(p int, c *sweep.ClassSpec) {
			if p == 1 {
				c.ArrivalSCV = 2
			}
		},
	}
)

// servePlan draws the open-loop schedule: rounds alternating low and
// high steps, with sweeps climbs of the ladder spread evenly among them
// (one step per rate), so the fixed-rate figures and the capacity both
// sample the whole serve phase rather than one stretch of it. The seed
// draws the arrival process alone. The request sequence (each step's
// kinds in order, the bodies and which earlier body each repeat
// resends) is one fixed table drawn from defaultSeed: which scenarios
// the solver leaves unconverged is a property of the bodies, so a
// seeded body set would turn serve.fail_share into a count that moves
// with the seed. The novel requests are points around the
// neighbourhood's centre of either tenant, the repeats resend an
// earlier body exactly, and the structural changes switch a tenant's
// shape.
func servePlan(seed int64, rounds, sweeps int) (ServePlan, error) {
	r, arrivals := newStream(defaultSeed, 3), newStream(seed, 6)
	var plan ServePlan
	var sent []json.RawMessage
	body := func(kind string) (json.RawMessage, error) {
		shape := serveTenants[r.intn(len(serveTenants))]
		if kind == kindStructural {
			shape = serveChanges[r.intn(len(serveChanges))]
		}
		tr := serveTraffic
		sc := serveScenario(r.jitter(tr.lambda, tr.jitter), r.jitter(tr.quantum, tr.jitter), shape)
		return json.Marshal(map[string]any{"scenario": sc})
	}
	type step struct {
		rate float64
		per  int
	}
	var steps []step
	climbs := 0
	climb := func(upTo int) {
		for ; climbs < upTo; climbs++ {
			for _, rate := range serveTraffic.ladder {
				steps = append(steps, step{rate, serveLadderSize})
			}
		}
	}
	for k := 0; k < rounds; k++ {
		steps = append(steps, step{serveTraffic.low, serveRoundSize}, step{serveTraffic.high, serveRoundSize})
		climb((k + 1) * sweeps / rounds)
	}
	climb(sweeps)
	for _, sp := range steps {
		rate, per := sp.rate, sp.per
		st := ServeStep{Rate: rate}
		t := 0.0
		for _, kind := range serveKinds(r, per, len(sent) == 0) {
			t += -math.Log(1-arrivals.f64()) / rate
			req := ServeRequest{Due: t, Kind: kind}
			if kind == kindRepeat {
				req.Body = sent[r.intn(len(sent))]
			} else {
				b, err := body(kind)
				if err != nil {
					return plan, err
				}
				req.Body = b
				sent = append(sent, b)
			}
			st.Requests = append(st.Requests, req)
		}
		plan.Steps = append(plan.Steps, st)
	}
	return plan, nil
}

// serveKinds is one step's request kinds in a seeded order, in the
// exact proportions of serveTraffic. With first
// set the step opens with a novel request, so a repeat always has an
// earlier body to repeat.
func serveKinds(r *stream, n int, first bool) []string {
	kinds := make([]string, n)
	repeats, structural := n*serveTraffic.repeatPct/100, n*serveTraffic.structuralPct/100
	for i := range kinds {
		switch {
		case i < repeats:
			kinds[i] = kindRepeat
		case i < repeats+structural:
			kinds[i] = kindStructural
		default:
			kinds[i] = kindNovel
		}
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	if first {
		for i, k := range kinds {
			if k == kindNovel {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
	}
	return kinds
}

// oracleCases is a prefix of the committed gangcheck corpus (seed
// 1996) whose per-case simulation seeds are redrawn through
// xcheck.Generate(seed, n): at seed 1996 the cases are exactly the
// committed ones. Whole corpora of other seeds are not used because
// their case costs differ by two orders of magnitude (see README.md).
func oracleCases(seed int64, n int) []xcheck.Case {
	cases := xcheck.Generate(defaultSeed, n)
	draw := xcheck.Generate(seed, n)
	for i := range cases {
		cases[i].Seed = draw[i].Seed
	}
	return cases
}
