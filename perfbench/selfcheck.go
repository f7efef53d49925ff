package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"
)

// selfCheck is the benchmark's short mode. It fails when BENCHMARK.json or
// METRICS.md is stale, when the oracle accepts a corrupted answer or rejects
// a correct one, or when a short run of any workload misses a metric.
func selfCheck(ctx context.Context, seed int64) error {
	if err := checkSpec(); err != nil {
		return err
	}
	if err := checkOracle(ctx, seed); err != nil {
		return err
	}
	for _, w := range workloads {
		d := 4 * time.Second
		for _, traced := range []bool{false, true} {
			var out *outcome
			var err error
			if traced {
				out, err = tracedRun(ctx, w, seed, d)
			} else {
				out, err = untracedRun(ctx, w, seed, d, 1)
			}
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, traced, err)
			}
			if miss := out.missing(traced); len(miss) > 0 {
				return fmt.Errorf("%s trace=%v: metrics missing: %v", w.name, traced, miss)
			}
			for name, v := range out.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit == "?" {
					return fmt.Errorf("%s trace=%v: metric %s = %v %s", w.name, traced, name, v.Value, v.Unit)
				}
			}
			if !out.Correct || out.Failed > 0 {
				return fmt.Errorf("%s trace=%v: %d of %d requests failed", w.name, traced, out.Failed, out.Attempted)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s trace=%v ok (%d requests)\n", w.name, traced, out.Attempted)
		}
	}
	fmt.Println("selfcheck ok")
	return nil
}

// checkOracle sends real requests and corrupts one answer on its way to the
// oracle: the oracle must pass the clean answers and flag the corrupted one.
func checkOracle(ctx context.Context, seed int64) error {
	w := workloadByName("recurring_hot")
	e, err := setup(ctx, w, seed, 0, false)
	if err != nil {
		return err
	}
	r, err := startServer(e, w, seed)
	if err != nil {
		return err
	}
	defer r.stop()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, q := range e.data.recurring {
		if s := r.send(ctx, hc, q); !s.ok() {
			return fmt.Errorf("oracle self-check: clean %s answer rejected (status %d)", q.Name, s.status)
		}
		r.corruptNext.Store(true)
		if s := r.send(ctx, hc, q); s.status != http.StatusOK || !s.wrong {
			return fmt.Errorf("oracle self-check: corrupted %s answer not flagged", q.Name)
		}
	}
	return nil
}
