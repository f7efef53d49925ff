package main

import (
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/dfs"
	"repro/internal/obs"
)

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// failedLatency stands in for +Inf: a failed or shed request misses every
// latency limit, and JSON has no infinity.
const failedLatency = 1e9

// traffic summarises windows as the clients saw them.
type traffic struct {
	attempted, ok, failed, wrong, shed int
	qps, p50, p99                      float64
}

// summarize pools windows. Throughput is the correct answers over the
// windows' total time.
func summarize(ws ...*windowResult) traffic {
	var t traffic
	var lats []float64
	var elapsed time.Duration
	for _, w := range ws {
		elapsed += w.elapsed
		for _, s := range w.samples {
			t.attempted++
			if !s.ok() {
				switch {
				case s.wrong:
					t.wrong++
				case s.status == http.StatusTooManyRequests || s.status == http.StatusGatewayTimeout:
					t.shed++
				}
				t.failed++
				lats = append(lats, failedLatency)
				continue
			}
			t.ok++
			lats = append(lats, ms(s.lat))
		}
	}
	t.qps = ratio(float64(t.ok), elapsed.Seconds())
	t.p50, t.p99 = percentile(lats, 0.5), percentile(lats, 0.99)
	return t
}

// windowCounters are process-wide counters read before and after a window.
type windowCounters struct {
	reg        registryDelta
	fs         dfs.IOStats
	allocBytes uint64
}

// layerMetrics derives the per-layer metrics of a traced window from the
// spans, the samples and the counter deltas over the window, which ended at
// windowEnd on the tracer's clock.
func layerMetrics(e *env, tr *tracer, windowEnd int64, traced, untraced *windowResult, wc windowCounters) map[string]float64 {
	m := map[string]float64{}
	byReq := map[uint64]span{}
	var queries, cycles, appends []span
	for _, s := range tr.spans {
		switch s.Name {
		case "core.query":
			queries = append(queries, s)
		case "core.cycle":
			cycles = append(cycles, s)
		case "warehouse.append":
			appends = append(appends, s)
		case "client.request":
			byReq[s.Req] = s
		}
	}
	n := float64(len(queries))

	var queue, overhead, self []float64
	for _, s := range traced.samples {
		if s.ok() {
			queue = append(queue, s.queueMS)
			overhead = append(overhead, ms(s.lat)-s.wallMS-s.queueMS)
		}
	}
	tt, ut := summarize(traced), summarize(untraced)
	m["serve.queue_ms_p50"] = median(queue)
	m["serve.overhead_ms_p50"] = median(overhead)
	m["serve.shed"] = float64(tt.shed)

	var dur, plan, coreSelf, exec []float64
	modes := map[string]float64{}
	sum := map[string]float64{}
	var opDFS dfs.IOStats
	var opQueries, opEngineBytes float64
	for _, q := range queries {
		d := ms(q.dur())
		dur = append(dur, d)
		plan = append(plan, float64(q.Attrs["plan_ns"])/1e6)
		exec = append(exec, float64(q.Attrs["exec_ns"])/1e6)
		coreSelf = append(coreSelf, d-float64(q.Attrs["plan_ns"]+q.Attrs["exec_ns"])/1e6)
		if c, ok := byReq[q.Req]; ok {
			self = append(self, ms(c.dur())-d)
		}
		modes[q.Mode]++
		for k, v := range q.Attrs {
			sum[k] += float64(v)
		}
		if overlapsAny(q, cycles) || overlapsAny(q, appends) {
			opQueries++
			opEngineBytes += float64(q.Attrs["bytes_read"])
		}
	}
	for _, s := range append(append([]span(nil), cycles...), appends...) {
		if s.Start < windowEnd {
			opDFS.Opens += s.Attrs["dfs_opens"]
			opDFS.BytesRead += s.Attrs["dfs_bytes_read"]
		}
	}
	m["serve.self_ms_p50"] = median(self)
	m["core.query_ms_p50"] = median(dur)
	m["core.query_ms_p99"] = percentile(dur, 0.99)
	m["core.plan_ms_p50"] = median(plan)
	m["core.self_ms_p50"] = median(coreSelf)
	m["core.cached_share"] = ratio(modes["cached"], n)
	m["core.combined_share"] = ratio(modes["combined"], n)
	m["core.raw_share"] = ratio(modes["raw"], n)
	m["core.degraded_share"] = ratio(modes["fallback-raw"], n)
	m["core.shared_share"] = ratio(modes["shared"], n)
	m["core.cache_values_per_query"] = ratio(sum["cache_values"], n)

	m["sqlengine.exec_ms_p50"] = median(exec)
	m["sqlengine.rows_scanned_per_query"] = ratio(sum["rows_scanned"], n)
	m["sqlengine.row_ops_per_query"] = ratio(sum["row_ops"], n)
	m["sqlengine.batches_per_query"] = ratio(sum["batches"], n)
	m["sjson.parse_docs_per_query"] = ratio(sum["parse_docs"], n)
	m["sjson.parse_bytes_per_query"] = ratio(sum["parse_bytes"], n)
	m["sjson.skipped_share"] = ratio(sum["parse_skipped"], sum["parse_bytes"]+sum["parse_skipped"])
	m["sjson.tree_fallback_per_query"] = ratio(sum["parse_tree_fallback"], n)
	m["orc.rowgroups_read_per_query"] = ratio(sum["rowgroups_read"], n)
	m["orc.rowgroups_skipped_share"] = ratio(sum["rowgroups_skipped"], sum["rowgroups_read"]+sum["rowgroups_skipped"])

	// Window totals, less what moved while a write ran: concurrent queries
	// make per-query dfs deltas overlap, so they are not summed.
	qn := n - opQueries
	m["dfs.opens_per_query"] = ratio(float64(wc.fs.Opens-opDFS.Opens), qn)
	m["dfs.bytes_read_per_query"] = ratio(float64(wc.fs.BytesRead-opDFS.BytesRead), qn)
	m["dfs.read_amplification"] = ratio(float64(wc.fs.BytesRead-opDFS.BytesRead), sum["bytes_read"]-opEngineBytes)
	var written, appendMS []float64
	for _, s := range appends {
		written = append(written, float64(s.Attrs["dfs_bytes_written"]))
		appendMS = append(appendMS, ms(s.dur()))
	}
	m["dfs.bytes_written_per_append"] = median(written)
	m["warehouse.append_ms_p50"] = median(appendMS)

	coalesced := float64(wc.reg.counters["scanshare_queries_coalesced_total"])
	solo := float64(wc.reg.counters["scanshare_solo_queries_total"])
	m["scanshare.coalesced_share"] = ratio(coalesced, coalesced+solo)
	m["scanshare.parse_bytes_saved_per_query"] = ratio(float64(wc.reg.counters["scanshare_parse_bytes_saved_total"]), n)
	m["scanshare.window_wait_ms_p50"] = histMedian(wc.reg.hists["scanshare_window_wait_ns"]) / 1e6
	m["runtime.alloc_mb_per_query"] = ratio(float64(wc.allocBytes)/(1<<20), n)

	rep, wall := e.warmReport, e.warmCycle
	for _, op := range traced.ops {
		if op.cycle {
			rep, wall = op.report, op.end.Sub(op.start)
		}
	}
	m["core.cycle.wall_ms"] = ms(wall)
	for _, st := range rep.Stages {
		m["core.cycle."+st.Name+"_ms"] = ms(st.Wall)
	}
	delete(m, "core.cycle.retire_ms")
	m["core.cycle.paths_cached"] = float64(rep.Cache.PathsCached)
	m["core.cycle.populate_bytes_scanned"] = float64(rep.Cache.BytesScanned)
	m["core.cycle.cache_bytes"] = float64(rep.Cache.BytesWritten)

	m["trace.qps"], m["trace.p50_ms"] = tt.qps, tt.p50
	m["trace.untraced_qps"], m["trace.untraced_p50_ms"] = ut.qps, ut.p50
	m["trace.overhead_qps_pct"] = 100 * ratio(ut.qps-tt.qps, ut.qps)
	m["trace.overhead_p50_pct"] = 100 * ratio(tt.p50-ut.p50, ut.p50)
	return m
}

func overlapsAny(s span, ops []span) bool {
	for _, o := range ops {
		if s.Start < o.End && o.Start < s.End {
			return true
		}
	}
	return false
}

// histMedian interpolates the median inside the power-of-two bucket that
// holds it.
func histMedian(h obs.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	half := float64(h.Count) / 2
	var seen float64
	for _, b := range h.Buckets {
		lo := float64((b.LE + 1) / 2)
		if seen+float64(b.Count) >= half {
			return lo + (float64(b.LE)-lo)*(half-seen)/float64(b.Count)
		}
		seen += float64(b.Count)
	}
	return float64(h.Buckets[len(h.Buckets)-1].LE)
}
