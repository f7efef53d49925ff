package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/sqlengine"
)

// span is one timed call across a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one (0 for roots).
type span struct {
	ID     uint64           `json:"id"`
	Parent uint64           `json:"parent,omitempty"`
	Req    uint64           `json:"req,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Mode   string           `json:"mode,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64         { return t.ids.Add(1) }
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ridMarker tags a traced request's SQL with its request ID, as a SQL line
// comment the backend wrapper strips before the query reaches the system.
const ridMarker = "\n-- perfbench-rid="

// tracedBackend is the serve.Backend the server calls. With a tracer set it
// records a core.query span per call, carrying the engine's Metrics and the
// dfs counters around the call; without one it only forwards.
type tracedBackend struct {
	sys *maxson.System
	tr  atomic.Pointer[tracer]
}

func (b *tracedBackend) setTracer(t *tracer) { b.tr.Store(t) }

func (b *tracedBackend) QueryCtx(ctx context.Context, sql string) (*sqlengine.ResultSet, *sqlengine.Metrics, error) {
	tr := b.tr.Load()
	if tr == nil {
		return b.sys.QueryCtx(ctx, sql)
	}
	var req uint64
	if i := strings.LastIndex(sql, ridMarker); i >= 0 {
		req, _ = strconv.ParseUint(sql[i+len(ridMarker):], 10, 64) // 0 leaves the span unlinked
		sql = sql[:i]
	}
	fs := b.sys.Warehouse().FS()
	before := fs.Stats()
	start := time.Now()
	rs, met, err := b.sys.QueryCtx(ctx, sql)
	end := time.Now()
	after := fs.Stats()
	s := span{ID: tr.newID(), Parent: req, Req: req, Name: "core.query",
		Start: tr.at(start), End: tr.at(end), Mode: "error",
		Attrs: map[string]int64{
			"dfs_opens":      after.Opens - before.Opens,
			"dfs_bytes_read": after.BytesRead - before.BytesRead,
		}}
	if met != nil {
		pc := met.Parse.Snapshot()
		s.Mode = met.PlanModeString()
		s.Attrs["plan_ns"] = int64(met.PlanWall)
		s.Attrs["exec_ns"] = int64(met.WallTime)
		s.Attrs["bytes_read"] = met.BytesRead.Load()
		s.Attrs["rows_scanned"] = met.RowsScanned.Load()
		s.Attrs["row_ops"] = met.RowOps.Load()
		s.Attrs["batches"] = met.Batches.Load()
		s.Attrs["rowgroups_read"] = met.RowGroupsRead.Load()
		s.Attrs["rowgroups_skipped"] = met.RowGroupsSkipped.Load()
		s.Attrs["parse_docs"] = pc.Docs
		s.Attrs["parse_bytes"] = pc.Bytes
		s.Attrs["parse_skipped"] = pc.Skipped
		s.Attrs["parse_tree_fallback"] = pc.TreeFallback
		s.Attrs["cache_values"] = met.CacheValuesRead.Load()
	}
	tr.add(s)
	return rs, met, err
}
