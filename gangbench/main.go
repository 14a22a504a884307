// Command gangbench is the repository's benchmark: one seeded run of one
// workload through the solver's public entry points (sweep.RunTrials,
// core.Solve, an in-process gangserved over HTTP, xcheck.Run), with
// every output checked and every metric printed by name and unit. The
// last line of standard output is the result object; the line before it
// records the machine, the run context and the details behind the
// figures (tail percentiles and sample counts, ladder steps).
//
//	gangbench --workload paper-grid --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the workload twice, untraced and traced, and reports
// the per-layer metrics of the traced pass plus the tracing overhead.
// See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/xcheck"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// setupRepeats is how many times set-up is timed; setup_s is the median.
const setupRepeats = 31

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("gangbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", wlScale, "workload: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", defaultSeed, "input seed")
	seconds := fl.Int("seconds", 10, "run length the work is sized for, in seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "gangbench: --trace %d, want 0 or 1\n", *trace)
		return 2
	}
	if _, err := Generate(*workload, *seed, *seconds); err != nil {
		fmt.Fprintln(stderr, "gangbench:", err)
		return 2
	}
	ctxInfo := runContext(*workload, *seed, *seconds, *trace)

	// Set-up: generate the inputs, load the committed oracle report and
	// bring up a listening server. Timed setupRepeats times; the last
	// server is kept for the serve phase.
	var (
		in        *Inputs
		committed *xcheck.Report
		rig       *serveRig
		setups    []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				fmt.Fprintln(stderr, "gangbench: close server:", err)
				return 1
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = Generate(*workload, *seed, *seconds); err == nil {
			committed, err = xcheck.LoadReport("xcheck-report.json")
		}
		if err == nil {
			rig, err = startServe()
		}
		if err != nil {
			fmt.Fprintln(stderr, "gangbench: set-up:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	untraced, wallUntraced := runPhases(in, committed, rig, false)
	phases := untraced
	out := metrics{}
	if *trace == 1 {
		// A fresh server, so the traced pass meets a cold answer store
		// exactly like the untraced one.
		err := rig.close()
		if err == nil {
			rig, err = startServe()
		}
		if err != nil {
			fmt.Fprintln(stderr, "gangbench: restart server:", err)
			return 1
		}
		var wallTraced time.Duration
		phases, wallTraced = runPhases(in, committed, rig, true)
		out.set("trace.overhead_share", (wallTraced-wallUntraced).Seconds()/wallUntraced.Seconds(), "share")
		for _, pr := range phases {
			for k, v := range pr.layers {
				out[k] = v
			}
		}
	} else {
		out.set("setup_s", median(setups), "s")
		for _, pr := range phases {
			for k, v := range pr.e2e {
				out[k] = v
			}
		}
	}
	if err := rig.close(); err != nil {
		fmt.Fprintln(stderr, "gangbench: close server:", err)
		return 1
	}

	res := result{Metrics: out}
	details := map[string]any{"setup_s": setups}
	var problems []string
	for _, pr := range phases {
		res.Attempted += pr.attempted
		res.Failed += pr.failed
		problems = append(problems, pr.problems...)
		for k, v := range pr.details {
			details[k] = v
		}
	}
	if *trace == 1 {
		// The untraced pass's outputs were checked too.
		for _, pr := range untraced {
			problems = append(problems, pr.problems...)
		}
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(stderr, "gangbench: check failed:", p)
	}
	bw := bufio.NewWriter(stdout)
	enc := json.NewEncoder(bw)
	enc.Encode(map[string]any{"context": ctxInfo, "details": details, "problems": problems})
	enc.Encode(res)
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(stderr, "gangbench: write result:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runPhases runs the four phases' units interleaved — always the unit
// of the phase least far along — so each phase's figures sample the
// whole run and a slow stretch of the machine touches every phase a
// little rather than one phase a lot. Garbage is collected before each
// unit so one unit's heap does not bill the next. Only the focused
// phase feeds the core, qbd, certify and matrix layers of a traced run.
// It returns the phases' results and the time the units took.
func runPhases(in *Inputs, committed *xcheck.Report, rig *serveRig, traced bool) ([]*phaseResult, time.Duration) {
	var lt *layerTrace
	if traced {
		lt = newLayerTrace()
	}
	focus := func(w string) *layerTrace {
		if in.Workload == w {
			return lt
		}
		return nil
	}
	jobs := []job{
		gridJob(in, traced, focus(wlGrid)),
		scaleJob(in, focus(wlScale)),
		serveJob(rig, in, traced, focus(wlServe)),
		oracleJob(in, committed, traced, focus(wlOracle)),
	}
	done := make([]int, len(jobs))
	progress := func(i int) float64 { return (float64(done[i]) + 0.5) / float64(len(jobs[i].units)) }
	var wall time.Duration
	for {
		next := -1
		for i := range jobs {
			if done[i] < len(jobs[i].units) && (next < 0 || progress(i) < progress(next)) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		runtime.GC()
		t0 := time.Now()
		jobs[next].units[done[next]]()
		wall += time.Since(t0)
		done[next]++
	}
	var out []*phaseResult
	for _, j := range jobs {
		t0 := time.Now()
		out = append(out, j.finish())
		wall += time.Since(t0)
	}
	if traced {
		pr := newPhaseResult()
		lt.metrics(pr.layers)
		out = append(out, pr)
	}
	return out, wall
}

// runContext records what a result depends on besides the code: the
// machine, the Go runtime, the code identity and the run's arguments.
func runContext(workload string, seed int64, seconds, trace int) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		commit += "+modified"
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root, in path
// order: the identity of the measured code when no commit is recorded
// (a checkout exported without its git metadata).
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
