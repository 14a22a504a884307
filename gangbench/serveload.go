package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
)

// maxConns is the client's connection budget: two senders, two
// connections, matching the 2 shards on a 2-CPU machine.
const maxConns = 2

// serveRig is an in-process gangserved: serve.New with 2 shards behind
// a real HTTP listener on the loopback interface.
type serveRig struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error // receives hs.Serve's return once it has exited
}

func startServe() (*serveRig, error) {
	srv, err := serve.New(serve.Config{Shards: 2})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	rig := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
				DisableCompression:  true,
			},
		},
	}
	go func() { rig.served <- rig.hs.Serve(ln) }()
	return rig, nil
}

// close drains the HTTP server and the shard pool and waits for the
// serving goroutine to exit.
func (r *serveRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := serve.Drain(ctx, r.hs, r.srv)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	r.client.CloseIdleConnections()
	return err
}

// scrape reads /metrics into series → value.
func (r *serveRig) scrape() (map[string]float64, error) {
	resp, err := r.client.Get(r.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// outcome is one request as the client saw it.
type outcome struct {
	kind    string
	body    string  // request body, the repeat-identity key
	latency float64 // ms from due time to response; +Inf on failure
	rtt     float64 // ms from send to response
	status  int
	resp    []byte
	err     error
}

// stepResult is one rung of the ladder.
type stepResult struct {
	rate     float64
	out      []outcome
	backlog  int     // requests due but unanswered when the last one fell due
	genLagMs float64 // worst generator lateness
	alloc    uint64  // bytes the process allocated while the step played
}

// runStep plays one step open-loop: a generator releases each request
// at its due time whatever the system is doing, two senders carry them
// over two connections, and each latency runs from the due time, so a
// stall charges every request queued behind it.
func (r *serveRig) runStep(step ServeStep) stepResult {
	n := len(step.Requests)
	res := stepResult{rate: step.Rate, out: make([]outcome, n)}
	ready := make(chan int, n) // sized to the number of sends: the generator never blocks
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				rq := step.Requests[i]
				sent := time.Now()
				status, body, err := r.post(rq.Body)
				done := time.Now()
				o := outcome{kind: rq.Kind, body: string(rq.Body), status: status, resp: body, err: err,
					rtt:     float64(done.Sub(sent)) / 1e6,
					latency: float64(done.Sub(start))/1e6 - rq.Due*1e3}
				if err != nil || status != http.StatusOK {
					o.latency = math.Inf(1)
				}
				res.out[i] = o
				completed.Add(1)
			}
		}()
	}
	for i, rq := range step.Requests {
		due := start.Add(time.Duration(rq.Due * float64(time.Second)))
		time.Sleep(time.Until(due))
		if lag := float64(time.Since(due)) / 1e6; lag > res.genLagMs {
			res.genLagMs = lag
		}
		ready <- i
		if i == n-1 {
			res.backlog = n - int(completed.Load())
		}
	}
	close(ready)
	wg.Wait()
	return res
}

// backlogLimit is the most requests that may still be unanswered when a
// step's last request falls due before the backlog counts as growing:
// the two in service plus a fifth of the step, the excess a 20%
// overload builds up over the step. Below that, a Poisson burst of a
// stable queue reads as growth too often.
func backlogLimit(n int) int { return maxConns + n/5 }

// post sends one request body once; the client never resends.
func (r *serveRig) post(body []byte) (int, []byte, error) {
	resp, err := r.client.Post(r.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveRun is every step played plus the /metrics deltas across them.
type serveRun struct {
	steps  []stepResult
	before map[string]float64
	after  map[string]float64
}

// rung summarizes every step played at one rate: the tail of all their
// latencies pooled, so it lies as far out as the whole sample allows;
// the median over the steps of each step's median latency, so one step
// caught by a slow stretch of the machine does not move it; and the
// median of their backlogs.
type rung struct {
	rate    float64
	steps   int
	p50     float64
	tail    Tail
	backlog float64
	pass    bool
}

func (run *serveRun) rung(rate float64) rung {
	r := rung{rate: rate}
	var lat, p50s, backlogs []float64
	stepSize := 0
	for _, s := range run.steps {
		if s.rate != rate {
			continue
		}
		r.steps++
		stepSize = len(s.out)
		var stepLat []float64
		for _, o := range s.out {
			stepLat = append(stepLat, o.latency)
		}
		lat = append(lat, stepLat...)
		p50s = append(p50s, median(stepLat))
		backlogs = append(backlogs, float64(s.backlog))
	}
	var ok bool
	if r.tail, ok = tail(lat); !ok {
		return r // too few samples for a tail: never passes
	}
	r.p50, r.backlog = median(p50s), median(backlogs)
	r.pass = r.tail.Value <= serveTailLimitMs && r.backlog <= float64(backlogLimit(stepSize))
	return r
}

// rungs lists the rates played, in ladder order.
func (run *serveRun) rungs() []rung {
	var rates []float64
	seen := map[float64]bool{}
	for _, s := range run.steps {
		if !seen[s.rate] {
			seen[s.rate] = true
			rates = append(rates, s.rate)
		}
	}
	sort.Float64s(rates)
	out := make([]rung, len(rates))
	for i, r := range rates {
		out[i] = run.rung(r)
	}
	return out
}

// maxRPS is the highest rate played whose rung passes: 0 when none does.
// A rung below it that fails, its tail caught by a slow stretch of the
// machine, does not cap it; above capacity the backlog grows and no rung
// passes.
func (run *serveRun) maxRPS() float64 {
	best := 0.0
	for _, r := range run.rungs() {
		if r.pass {
			best = r.rate
		}
	}
	return best
}

// allocPerRequest is the bytes the process allocated per request while
// the fixed-rate steps played: the server's work plus the client's.
func (run *serveRun) allocPerRequest() float64 {
	var bytes uint64
	n := 0
	for _, s := range run.steps {
		if s.rate == serveTraffic.low || s.rate == serveTraffic.high {
			bytes += s.alloc
			n += len(s.out)
		}
	}
	return float64(bytes) / float64(max(1, n))
}

// rttByKind is the mean send-to-answer time of each request kind.
func (run *serveRun) rttByKind() map[string]float64 {
	sum, n := map[string]float64{}, map[string]float64{}
	for _, s := range run.steps {
		for _, o := range s.out {
			sum[o.kind] += o.rtt
			n[o.kind]++
		}
	}
	for k := range sum {
		sum[k] /= n[k]
	}
	return sum
}

func (run *serveRun) delta(series string) float64 { return run.after[series] - run.before[series] }

// check counts every request that got no answer (a transport error or a
// status other than 200) as failed, by status in byStatus, and verifies
// every answer: each 200 decodes, every stable class carries a
// certificate that passes Verify, and every response to the same body is
// identical once the per-request fields are cleared.
func (run *serveRun) check() (attempted, failed int, byStatus map[int]int, problems []string) {
	first := map[string][]byte{}
	byStatus = map[int]int{}
	for _, st := range run.steps {
		for _, o := range st.out {
			attempted++
			if o.err != nil || o.status != http.StatusOK {
				failed++
				byStatus[o.status]++ // 0: transport error
				continue
			}
			var resp serve.SolveResponse
			if err := json.Unmarshal(o.resp, &resp); err != nil {
				failed++
				problems = append(problems, fmt.Sprintf("serve: decode response: %v", err))
				continue
			}
			if p := verifyResponse(&resp); p != "" {
				failed++
				problems = append(problems, p)
				continue
			}
			resp.Cached, resp.CacheTier, resp.Coalesced, resp.ElapsedMillis = false, "", false, 0
			norm, err := json.Marshal(&resp)
			if err != nil {
				failed++
				problems = append(problems, fmt.Sprintf("serve: re-encode response: %v", err))
				continue
			}
			if prev, ok := first[o.body]; ok && !bytes.Equal(prev, norm) {
				failed++
				problems = append(problems, fmt.Sprintf("serve: %s request answered differently on repeat (key %s)", o.kind, resp.Key))
				continue
			}
			first[o.body] = norm
		}
	}
	return attempted, failed, byStatus, problems
}

func verifyResponse(resp *serve.SolveResponse) string {
	if !resp.Converged || resp.Degraded {
		return fmt.Sprintf("serve: key %s converged=%v degraded=%v", resp.Key, resp.Converged, resp.Degraded)
	}
	for p, ca := range resp.Classes {
		if !ca.Stable {
			continue
		}
		if ca.Certificate == nil {
			return fmt.Sprintf("serve: key %s class %d has no certificate", resp.Key, p)
		}
		if err := ca.Certificate.Verify(); err != nil {
			return fmt.Sprintf("serve: key %s class %d certificate: %v", resp.Key, p, err)
		}
	}
	return ""
}

// replaySample is how many solved scenarios of a focused serve-open
// run are re-solved cold and replayed for the per-layer split.
const replaySample = 3

// serveJob plays the plan against a fresh in-process server, one step
// per unit; every step is played, the ones past capacity too, so the
// number of requests attempted never depends on where the capacity
// lies. A traced run also reports the serve layer from /metrics deltas
// and the client's records; lt, when non-nil, receives the counts of
// every solve the shards ran and a replayed round of a few served
// scenarios.
func serveJob(rig *serveRig, in *Inputs, traced bool, lt *layerTrace) job {
	run := &serveRun{}
	var scrapeErr error
	var units []func()
	for i, st := range in.Serve.Steps {
		units = append(units, func() {
			if i == 0 {
				run.before, scrapeErr = rig.scrape()
			}
			a0 := totalAlloc()
			res := rig.runStep(st)
			res.alloc = totalAlloc() - a0
			run.steps = append(run.steps, res)
		})
	}
	return job{units: units, finish: func() *phaseResult {
		var err error
		if run.after, err = rig.scrape(); scrapeErr == nil {
			scrapeErr = err
		}
		return serveResult(run, scrapeErr, in, traced, lt)
	}}
}

func serveResult(run *serveRun, scrapeErr error, in *Inputs, traced bool, lt *layerTrace) *phaseResult {
	pr := newPhaseResult()
	if scrapeErr != nil {
		pr.problem("serve: %v", scrapeErr)
		return pr
	}
	var problems []string
	var byStatus map[int]int
	pr.attempted, pr.failed, byStatus, problems = run.check()
	pr.problems = append(pr.problems, problems...)
	pr.details["serve.failed_by_status"] = byStatus
	var rungs []map[string]any
	for _, r := range run.rungs() {
		rungs = append(rungs, map[string]any{"rate": r.rate, "steps": r.steps, "p50_ms": r.p50,
			"tail": r.tail, "backlog": r.backlog, "pass": r.pass})
	}
	pr.details["serve.rungs"] = rungs
	pr.details["serve.rtt_ms_by_kind"] = run.rttByKind()
	pr.e2e.set("serve.alloc_kb", run.allocPerRequest()/1e3, "kB")
	pr.e2e.set("serve.fail_share", failShare(pr.failed, pr.attempted), "share")

	// Latency and capacity: reported by the traced run only, because on
	// a shared 2-CPU machine they spread too far from run to run to
	// carry a regression bound (see README.md).
	latency := metrics{}
	for _, lv := range []struct {
		name string
		rate float64
	}{{"low", serveTraffic.low}, {"high", serveTraffic.high}} {
		r := run.rung(lv.rate)
		if r.tail.Samples <= minBeyond {
			pr.problem("serve: too few %s-rate requests for a tail", lv.name)
			continue
		}
		latency.set("serve."+lv.name+".p50_ms", r.p50, "ms")
		latency.set("serve."+lv.name+".tail_ms", r.tail.Value, "ms")
		pr.details["serve."+lv.name+".tail_ms"] = map[string]any{"tail": r.tail, "rounds": r.steps}
	}
	latency.set("serve.max_rps", run.maxRPS(), "1/s")
	pr.details["serve.latency"] = latency
	if !traced {
		return pr
	}
	for k, v := range latency {
		pr.layers[k] = v
	}

	var solved []serve.SolveResponse
	var solvedReqs []*serve.SolveRequest
	var rtt, elapsed, decode []float64
	genLag := 0.0
	for _, s := range run.steps {
		genLag = math.Max(genLag, s.genLagMs)
		for _, o := range s.out {
			var req *serve.SolveRequest
			var err error
			decode = append(decode, float64(timed(func() {
				req, err = serve.DecodeSolveRequest(strings.NewReader(o.body), 1<<20)
			}))/1e3)
			if err != nil {
				pr.problem("serve: decode request: %v", err)
			}
			if o.status != http.StatusOK {
				continue
			}
			var d serve.SolveResponse
			if json.Unmarshal(o.resp, &d) != nil {
				continue
			}
			rtt = append(rtt, o.rtt-float64(d.ElapsedMillis))
			if !d.Cached && !d.Coalesced && req != nil {
				elapsed = append(elapsed, float64(d.ElapsedMillis))
				solved = append(solved, d)
				solvedReqs = append(solvedReqs, req)
			}
		}
	}
	reqs := run.delta(`gangserved_request_duration_seconds_count{endpoint="solve"}`)
	serverMs := 0.0
	if reqs > 0 {
		serverMs = run.delta(`gangserved_request_duration_seconds_sum{endpoint="solve"}`) / reqs * 1e3
	}
	warm := run.delta(`gangserved_pipeline_total{stage="warm_solves"}`)
	warmAcc := 0.0
	if warm > 0 {
		warmAcc = run.delta(`gangserved_pipeline_total{stage="warm_accepted"}`) / warm
	}
	memoShare := 0.0
	if reqs > 0 {
		memoShare = run.delta(`gangserved_cache_hits_total{tier="memo"}`) / reqs
	}
	backlog := run.rung(serveTraffic.high).backlog
	pr.layers.set("serve.decode_us", mean(decode), "us")
	pr.layers.set("serve.solve_ms", mean(elapsed), "ms")
	pr.layers.set("serve.overhead_ms", mean(rtt), "ms")
	pr.layers.set("serve.server_ms.mean", serverMs, "ms")
	pr.layers.set("serve.memo_hit_share", memoShare, "share")
	pr.layers.set("serve.coalesced", run.delta("gangserved_coalesced_requests_total"), "count")
	pr.layers.set("serve.trial_solves", run.delta("gangserved_trial_solves_total"), "count")
	pr.layers.set("serve.shed", run.delta("gangserved_shed_requests_total"), "count")
	pr.layers.set("serve.warm_acceptance", warmAcc, "share")
	pr.layers.set("serve.gen_lag_ms.max", genLag, "ms")
	pr.layers.set("serve.backlog", backlog, "count")

	if lt == nil {
		return pr
	}
	for _, d := range solved {
		lt.observe(d.Iterations, d.Counters)
		for _, ca := range d.Classes {
			if ca.Certificate != nil {
				lt.observePath(ca.Certificate.Path)
			}
		}
	}
	rs := newStream(in.Seed, 5)
	for k := 0; k < replaySample && len(solvedReqs) > 0; k++ {
		req := solvedReqs[rs.intn(len(solvedReqs))]
		res, opts, err := solveDirect(sweep.Trial{Scenario: req.Scenario, Method: sweep.MethodAnalytic, Solve: req.Solve})
		if err == nil {
			m, _ := req.Scenario.Model()
			err = lt.replay(m, res, withSolveDefaults(opts))
		}
		if err != nil {
			pr.problem("serve: replay: %v", err)
		}
	}
	return pr
}
