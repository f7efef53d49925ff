// Command perfbench is the repository benchmark: closed-loop HTTP traffic
// through the maxson-serve stack, configured with maxson-serve's defaults,
// over the paper's Table II data, with every answer checked against an
// uncached reference engine.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload recurring_hot --seed 1 --seconds 16 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a separate
// traced run prints the per-layer metrics. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --selfcheck runs a short mode that fails on a missing metric, an oracle
// that misses a corrupted answer, or a stale BENCHMARK.json; --write-spec
// regenerates BENCHMARK.json and perfbench/METRICS.md from spec.go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// setupReps is how often an untraced run sets up; setup_s is the
// nearest-rank median, which of two is the faster.
// Set-up costs about as much as the traffic window, so two set-ups are what
// fits a run beside enough requests for a stable p99 on adhoc_cold.
const setupReps = 2

// outcome is one run's result line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: recurring_hot, adhoc_cold or daily_churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", runSeconds, "measured seconds per run, split over its windows")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "short self-check of metrics, oracle and spec")
	spec := flag.Bool("write-spec", false, "write BENCHMARK.json and perfbench/METRICS.md")
	flag.Parse()

	ctx := context.Background()
	var err error
	switch {
	case *spec:
		err = writeSpec()
	case *selfcheck:
		err = selfCheck(ctx, *seed)
	default:
		w := workloadByName(*name)
		// Each of the two windows of a run gets at least a second.
		if w == nil || *trace < 0 || *trace > 1 || *seconds < 2 {
			fmt.Fprintln(os.Stderr, "perfbench: need --workload recurring_hot|adhoc_cold|daily_churn, --trace 0|1, --seconds >= 2")
			os.Exit(2)
		}
		d := time.Duration(*seconds) * time.Second
		var out *outcome
		if *trace == 1 {
			out, err = tracedRun(ctx, w, *seed, d)
		} else {
			out, err = untracedRun(ctx, w, *seed, d, setupReps)
		}
		if err == nil {
			err = printOutcome(out, *trace == 1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// untracedRun measures the end-to-end metrics: reps set-ups, each followed
// by a window of d/reps (on daily_churn, one write schedule), so the
// measurement is spread over the whole run.
func untracedRun(ctx context.Context, w *workload, seed int64, d time.Duration, reps int) (*outcome, error) {
	var (
		e              *env
		windows        []*windowResult
		setups, cycles []float64
	)
	for i := 0; i < reps; i++ {
		e = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, w, seed, appendsPerWindow(w), false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !w.churn {
			cycles = append(cycles, e.warmCycle.Seconds())
		}
		fmt.Fprintf(os.Stderr, "setup %d: %.2fs (warm-up cycle %.2fs, %d paths cached)\n",
			i+1, setups[i], e.warmCycle.Seconds(), e.warmReport.Cache.PathsCached)
		res, err := serveWindow(ctx, e, w, seed, d/time.Duration(reps), i)
		if err != nil {
			return nil, err
		}
		for _, op := range res.ops {
			if op.cycle {
				cycles = append(cycles, op.end.Sub(op.start).Seconds())
			}
		}
		windows = append(windows, res)
	}
	t := summarize(windows...)
	out := newOutcome(t)
	out.set("qps", t.qps)
	out.set("p50_ms", t.p50)
	out.set("p99_ms", t.p99)
	out.set("setup_s", median(setups))
	out.set("cycle_s", median(cycles))

	// Live heap with only the system left: the benchmark's inputs, oracle
	// and server go first. The dfs is in memory, so this is also storage.
	sys := e.sys
	e, windows = nil, nil
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(sys)
	out.set("heap_live_mb", float64(mem.HeapAlloc)/(1<<20))
	return out, nil
}

// appendIdle appends the environment's idle part files once traffic is
// over, in rounds over the hot tables; with a tracer set each is a span.
// Rounds start after a collection, so garbage from the traffic does not land
// on them, and are spaced out, so one stall elsewhere on the machine does
// not hit them all.
func appendIdle(r *runner) error {
	runtime.GC()
	idle := r.e.data.idle
	for i, a := range idle {
		if i > 0 && i%len(hotTables) == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		if _, _, err := r.append(a); err != nil {
			return err
		}
	}
	return nil
}

// tracedRun measures the per-layer metrics: an untraced window of d/2 on
// one set-up, then on a second the counters pass, the calibration lane and
// the traced window of d/2.
func tracedRun(ctx context.Context, w *workload, seed int64, d time.Duration) (*outcome, error) {
	// The untraced twin window runs on a set-up of its own, so that both
	// windows start from the same state and send the same sequences.
	e, err := setup(ctx, w, seed, appendsPerWindow(w), false)
	if err != nil {
		return nil, err
	}
	untraced, err := serveWindow(ctx, e, w, seed, d/2, 0)
	if err != nil {
		return nil, err
	}

	e = nil
	runtime.GC()
	e, err = setup(ctx, w, seed, appendsPerWindow(w), true)
	if err != nil {
		return nil, err
	}
	counts, err := countersPass(ctx, e)
	if err != nil {
		return nil, err
	}
	stream, tree, err := calibrate(e, w, 300*time.Millisecond)
	if err != nil {
		return nil, err
	}
	r, err := startServer(e, w, seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	fs := e.sys.Warehouse().FS()
	reg0, fs0, alloc0 := e.sys.Obs().Snapshot(), fs.Stats(), heapAllocs()
	traced := r.window(ctx, d/2, 0, tr)
	reg1, fs1, alloc1 := e.sys.Obs().Snapshot(), fs.Stats(), heapAllocs()
	windowEnd := tr.at(time.Now())
	if !w.churn {
		// Workloads without write traffic trace appends on the idle system.
		r.tr = tr
		err := appendIdle(r)
		r.tr = nil
		if err != nil {
			return nil, err
		}
	}
	if err := r.stop(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if traced.err != nil {
		return nil, traced.err
	}
	wc := windowCounters{reg: diffRegistry(reg0, reg1), allocBytes: alloc1 - alloc0, fs: fs1}
	wc.fs.Opens -= fs0.Opens
	wc.fs.BytesRead -= fs0.BytesRead
	wc.fs.BytesWritten -= fs0.BytesWritten

	t := summarize(traced)
	ut := summarize(untraced)
	out := newOutcome(t)
	out.Attempted += ut.attempted
	out.Failed += ut.failed
	out.Correct = out.Correct && ut.wrong == 0
	for k, v := range layerMetrics(e, tr, windowEnd, traced, untraced, wc) {
		out.set(k, v)
	}
	for k, v := range counts {
		out.set(k, v)
	}
	cm := e.sys.Engine().CostModel()
	out.set("sjson.stream_ns_per_byte", stream)
	out.set("sjson.tree_ns_per_byte", tree)
	out.set("sjson.stream_model_ratio", stream/cm.ParseNsPerByteStream)
	out.set("sjson.tree_model_ratio", tree/cm.ParseNsPerByteTree)

	path := filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(tr.spans), path)
	return out, nil
}

// heapAllocs reads the process's cumulative heap allocation in bytes
// without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func newOutcome(t traffic) *outcome {
	return &outcome{
		Correct:   t.wrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
}

// set records a metric under the unit its spec gives.
func (o *outcome) set(name string, v float64) {
	unit := "?"
	for _, m := range append(append([]metricSpec(nil), endToEnd...), allPerLayer()...) {
		if m.Name == name {
			unit = m.Unit
		}
	}
	o.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// reported lists the metrics a run reports: per-layer when traced.
func reported(traced bool) []metricSpec {
	if traced {
		return allPerLayer()
	}
	return endToEnd
}

// missing lists the spec metrics the outcome lacks.
func (o *outcome) missing(traced bool) []string {
	var out []string
	for _, m := range reported(traced) {
		if _, ok := o.Metrics[m.Name]; !ok {
			out = append(out, m.Name)
		}
	}
	return out
}

// printOutcome prints one metric per line, then the result object as the
// last line. Only the metrics of the run's kind go into the object.
func printOutcome(o *outcome, traced bool) error {
	if miss := o.missing(traced); len(miss) > 0 {
		return fmt.Errorf("metrics missing: %v", miss)
	}
	kept := map[string]metricValue{}
	for _, m := range reported(traced) {
		v := o.Metrics[m.Name]
		kept[m.Name] = v
		fmt.Printf("%-42s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	fmt.Printf("%-42s %14.4f\n", "error_rate", ratio(float64(o.Failed), float64(o.Attempted)))
	o.Metrics = kept
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
