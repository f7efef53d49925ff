package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// metricSpec names one reported metric. Moves says, for a per-layer metric,
// which end-to-end metric on which workload it is expected to move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	Moves  string
}

// endToEnd is what a user of the server sees, measured with tracing off.
// The timing bounds are the widest allowed: on the shared 2-core host the
// benchmark was tuned on, a fixed CPU loop varies by about 10% and a large
// memory copy by about 30% from one half second to the next. For the same
// reason AppendRows wall time is a per-layer metric only: a sub-millisecond
// call varied up to 19% between runs even as a median of 20 spaced rounds.
var endToEnd = []metricSpec{
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.1},
	{Name: "cycle_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	allQPS   = "qps on all workloads"
	hotP50   = "p50_ms/qps on recurring_hot"
	coldP50  = "qps/p50_ms on adhoc_cold"
	churnP99 = "p99_ms on daily_churn"
)

// perLayer comes from the separate traced run, named by module.
var perLayer = []metricSpec{
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower", Moves: "p99_ms on daily_churn, p50_ms on recurring_hot"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower", Moves: "p50_ms on recurring_hot"},
	{Name: "serve.self_ms_p50", Unit: "ms", Better: "lower", Moves: "p50_ms on recurring_hot"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: churnP99},
	{Name: "core.query_ms_p50", Unit: "ms", Better: "lower", Moves: "p50_ms on all workloads"},
	{Name: "core.query_ms_p99", Unit: "ms", Better: "lower", Moves: "p99_ms on all workloads"},
	{Name: "core.plan_ms_p50", Unit: "ms", Better: "lower", Moves: hotP50},
	{Name: "core.self_ms_p50", Unit: "ms", Better: "lower", Moves: hotP50},
	{Name: "core.cached_share", Unit: "ratio", Better: "higher", Moves: "p50_ms on recurring_hot and daily_churn"},
	{Name: "core.combined_share", Unit: "ratio", Better: "lower", Moves: coldP50},
	{Name: "core.raw_share", Unit: "ratio", Better: "lower", Moves: "p50_ms on daily_churn and adhoc_cold"},
	{Name: "core.degraded_share", Unit: "ratio", Better: "lower", Moves: "p50_ms on daily_churn"},
	{Name: "core.shared_share", Unit: "ratio", Better: "higher", Moves: coldP50},
	{Name: "core.cache_values_per_query", Unit: "count", Better: "higher", Moves: hotP50},
	{Name: "core.cycle.wall_ms", Unit: "ms", Better: "lower", Moves: "cycle_s on daily_churn"},
	{Name: "core.cycle.collect_ms", Unit: "ms", Better: "lower", Moves: "cycle_s on daily_churn"},
	{Name: "core.cycle.predict_ms", Unit: "ms", Better: "lower", Moves: "cycle_s on daily_churn"},
	{Name: "core.cycle.score_ms", Unit: "ms", Better: "lower", Moves: "cycle_s and p99_ms on daily_churn"},
	{Name: "core.cycle.populate_ms", Unit: "ms", Better: "lower", Moves: "cycle_s and p99_ms on daily_churn"},
	{Name: "core.cycle.paths_cached", Unit: "count", Better: "higher", Moves: "p50_ms on recurring_hot and daily_churn"},
	{Name: "core.cycle.populate_bytes_scanned", Unit: "bytes", Better: "lower", Moves: "cycle_s on daily_churn"},
	{Name: "core.cycle.cache_bytes", Unit: "bytes", Better: "lower", Moves: "heap_live_mb on all workloads"},
	{Name: "sqlengine.exec_ms_p50", Unit: "ms", Better: "lower", Moves: allQPS},
	{Name: "sqlengine.rows_scanned_per_query", Unit: "count", Better: "lower", Moves: allQPS},
	{Name: "sqlengine.row_ops_per_query", Unit: "count", Better: "lower", Moves: allQPS},
	{Name: "sqlengine.batches_per_query", Unit: "count", Better: "lower", Moves: allQPS},
	{Name: "sjson.parse_docs_per_query", Unit: "count", Better: "lower", Moves: coldP50},
	{Name: "sjson.parse_bytes_per_query", Unit: "bytes", Better: "lower", Moves: coldP50},
	{Name: "sjson.skipped_share", Unit: "ratio", Better: "higher", Moves: coldP50},
	{Name: "sjson.tree_fallback_per_query", Unit: "count", Better: "lower", Moves: coldP50},
	{Name: "sjson.stream_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: coldP50},
	{Name: "sjson.tree_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: coldP50},
	{Name: "sjson.stream_model_ratio", Unit: "ratio", Better: "lower", Moves: "none: measured over CostModel stream rate"},
	{Name: "sjson.tree_model_ratio", Unit: "ratio", Better: "lower", Moves: "none: measured over CostModel tree rate"},
	{Name: "orc.rowgroups_read_per_query", Unit: "count", Better: "lower", Moves: "p50_ms on recurring_hot and adhoc_cold"},
	{Name: "orc.rowgroups_skipped_share", Unit: "ratio", Better: "higher", Moves: "p50_ms on recurring_hot and adhoc_cold"},
	{Name: "warehouse.append_ms_p50", Unit: "ms", Better: "lower", Moves: "p99_ms on daily_churn"},
	{Name: "dfs.opens_per_query", Unit: "count", Better: "lower", Moves: hotP50},
	{Name: "dfs.bytes_read_per_query", Unit: "bytes", Better: "lower", Moves: hotP50},
	{Name: "dfs.bytes_written_per_append", Unit: "bytes", Better: "lower", Moves: "p99_ms on daily_churn"},
	{Name: "dfs.read_amplification", Unit: "ratio", Better: "lower", Moves: hotP50},
	{Name: "scanshare.coalesced_share", Unit: "ratio", Better: "higher", Moves: coldP50},
	{Name: "scanshare.parse_bytes_saved_per_query", Unit: "bytes", Better: "higher", Moves: coldP50},
	{Name: "scanshare.window_wait_ms_p50", Unit: "ms", Better: "lower", Moves: "p50_ms on recurring_hot"},
	{Name: "runtime.alloc_mb_per_query", Unit: "MiB", Better: "lower", Moves: "p99_ms on all workloads"},
	{Name: "trace.qps", Unit: "1/s", Better: "higher", Moves: "none: traced twin of qps"},
	{Name: "trace.p50_ms", Unit: "ms", Better: "lower", Moves: "none: traced twin of p50_ms"},
	{Name: "trace.untraced_qps", Unit: "1/s", Better: "higher", Moves: "none: untraced window of the traced run"},
	{Name: "trace.untraced_p50_ms", Unit: "ms", Better: "lower", Moves: "none: untraced window of the traced run"},
	{Name: "trace.overhead_qps_pct", Unit: "%", Better: "lower", Moves: "none: tracing overhead"},
	{Name: "trace.overhead_p50_pct", Unit: "%", Better: "lower", Moves: "none: tracing overhead"},
}

// counterQueries are the queries whose deterministic counters are gated;
// "adhoc" sums the ad-hoc set.
var counterQueries = []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "QW", "adhoc"}

// counterKinds are the per-query counts of the single-client counters pass.
var counterKinds = []struct{ Name, Unit, Moves string }{
	{"dfs_opens", "count", hotP50},
	{"dfs_bytes", "bytes", hotP50},
	{"parse_bytes", "bytes", coldP50},
}

// allPerLayer is perLayer plus the counters pass.
func allPerLayer() []metricSpec {
	out := append([]metricSpec(nil), perLayer...)
	for _, q := range counterQueries {
		for _, k := range counterKinds {
			out = append(out, metricSpec{Name: "counters." + q + "." + k.Name, Unit: k.Unit, Better: "lower", Moves: k.Moves})
		}
	}
	return out
}

// runSeconds is how long one run measures; every run also sets up, so a run
// takes several times this.
const runSeconds = 16

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateSpec holds the tables to the limits BENCHMARK.json must meet.
func validateSpec() error {
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) || seen[n] {
			return fmt.Errorf("spec: bad or repeated name %q", n)
		}
		seen[n] = true
		return nil
	}
	if len(workloads) < 2 || len(workloads) > 8 || runSeconds < 1 || runSeconds > 60 {
		return fmt.Errorf("spec: %d workloads, run_seconds %d", len(workloads), runSeconds)
	}
	for _, w := range workloads {
		if err := name(w.name); err != nil {
			return err
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			return fmt.Errorf("spec: why of %s is %d characters or spans lines", w.name, len(w.why))
		}
	}
	layers := allPerLayer()
	if len(layers) > 128 {
		return fmt.Errorf("spec: %d per-layer metrics", len(layers))
	}
	hasSetup := false
	for i, m := range append(append([]metricSpec(nil), endToEnd...), layers...) {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			return fmt.Errorf("spec: %s has unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if i < len(endToEnd) && (m.Bound <= 0 || m.Bound > 0.25) {
			return fmt.Errorf("spec: %s bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		return fmt.Errorf("spec: no setup_s end-to-end metric")
	}
	return nil
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	if err := validateSpec(); err != nil {
		return nil, err
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range allPerLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// metricsMarkdown renders the per-layer table with the end-to-end metric and
// workload each should move.
func metricsMarkdown() []byte {
	var b strings.Builder
	b.WriteString("# perfbench metrics\n\nGenerated by `bash perfbench/run.sh --write-spec`; edit `perfbench/spec.go` instead.\n\n")
	b.WriteString("## End to end (untraced runs)\n\n| metric | unit | better | bound |\n|---|---|---|---|\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %.2f |\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	b.WriteString("\n## Per layer (traced run) and what each should move\n\n| metric | unit | better | should move |\n|---|---|---|---|\n")
	for _, m := range allPerLayer() {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.Moves)
	}
	return []byte(b.String())
}

// writeSpec writes BENCHMARK.json and perfbench/METRICS.md.
func writeSpec() error {
	js, err := benchmarkJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCHMARK.json", js, 0o644); err != nil {
		return err
	}
	return os.WriteFile("perfbench/METRICS.md", metricsMarkdown(), 0o644)
}

// checkSpec fails when the committed files differ from the tables.
func checkSpec() error {
	js, err := benchmarkJSON()
	if err != nil {
		return err
	}
	for path, want := range map[string][]byte{"BENCHMARK.json": js, "perfbench/METRICS.md": metricsMarkdown()} {
		got, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s is stale: regenerate with --write-spec", path)
		}
	}
	return nil
}
