package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/jsonpath"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
)

// countersPass runs every distinct query once from one client, in order,
// and returns per-query work counts that repeat exactly for a seed: dfs
// opens and bytes read around the call, and the bytes the engine parsed.
// Every answer is checked against the oracle.
func countersPass(ctx context.Context, e *env) (map[string]float64, error) {
	fs := e.sys.Warehouse().FS()
	m := map[string]float64{}
	for _, q := range e.data.all() {
		before := fs.Stats()
		rs, met, err := e.sys.QueryCtx(ctx, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("counters pass %s: %w", q.Name, err)
		}
		after := fs.Stats()
		if !e.oracle.check(q.Name, 0, 0, render(rs)) {
			return nil, fmt.Errorf("counters pass %s: answer differs from the reference", q.Name)
		}
		key := q.Name
		if strings.HasPrefix(key, "A") {
			key = "adhoc"
		}
		m["counters."+key+".dfs_opens"] += float64(after.Opens - before.Opens)
		m["counters."+key+".dfs_bytes"] += float64(after.BytesRead - before.BytesRead)
		m["counters."+key+".parse_bytes"] += float64(met.Parse.Snapshot().Bytes)
	}
	return m, nil
}

// calibLane is one query's extraction job: its table's documents and its
// JSONPaths, for the tree (parse + Eval) and stream (PathSet) extractors.
type calibLane struct {
	docs  [][]byte
	paths []*jsonpath.Path
	set   *jsonpath.PathSet
}

// calibrate times the public tree and stream extraction calls over the
// documents and paths of the queries w sends, alternating the two for
// about budget each, and returns ns per document byte of each.
func calibrate(e *env, w *workload, budget time.Duration) (stream, tree float64, err error) {
	var lanes []calibLane
	for _, q := range w.queries(e.data) {
		stmt, err := sqlengine.Parse(q.SQL)
		if err != nil {
			return 0, 0, err
		}
		l := calibLane{}
		for _, jp := range stmt.JSONPaths() {
			l.paths = append(l.paths, jp.Path)
		}
		if l.set, err = jsonpath.NewPathSet(l.paths...); err != nil {
			return 0, 0, err
		}
		for _, part := range e.data.parts[q.Table] {
			for _, row := range part {
				l.docs = append(l.docs, []byte(row[2].S))
			}
		}
		lanes = append(lanes, l)
	}
	var p sjson.Parser
	var out []*sjson.Value
	var treeNs, streamNs, treeBytes, streamBytes float64
	for treeNs+streamNs < float64(2*budget) {
		for _, l := range lanes {
			t0 := time.Now()
			for _, doc := range l.docs {
				p.ResetValues()
				v, err := p.Parse(doc)
				if err != nil {
					return 0, 0, err
				}
				for _, path := range l.paths {
					path.Eval(v)
				}
				treeBytes += float64(len(doc))
			}
			treeNs += float64(time.Since(t0))

			out = append(out[:0], make([]*sjson.Value, l.set.Len())...)
			t0 = time.Now()
			for _, doc := range l.docs {
				p.ResetValues()
				if _, err := l.set.Extract(&p, doc, out); err != nil {
					return 0, 0, err
				}
				streamBytes += float64(len(doc))
			}
			streamNs += float64(time.Since(t0))
		}
	}
	return streamNs / streamBytes, treeNs / treeBytes, nil
}
