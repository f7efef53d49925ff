package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/datum"
	"repro/internal/experiments"
	"repro/internal/orc"
	"repro/internal/sjson"
)

// Deployment settings: the values cmd/maxson-serve uses when started with
// no flags, so the benchmark measures the system as it ships.
const (
	db          = "prod"
	budgetBytes = 64 << 20             // maxson-serve -budget-mb 64
	shareWindow = 2 * time.Millisecond // maxson-serve -scan-share-window 2ms
)

// Input sizes. 500 rows per Table II table is about 18 MB of raw JSON.
const (
	rowsPerTable = 500
	replayDays   = 10
	// replayPerDay runs each recurring query this often per replayed day, so
	// every path it reads is parsed at least twice a day: an MPJP.
	replayPerDay = 2
	appendRows   = 100
	// idleAppends is how many appends the traced run of a workload without
	// write traffic times on the idle system: ten rounds over the hot tables.
	idleAppends = 30
	adhocPerTab = 2
	adhocPaths  = 3
)

// query is one distinct SQL statement the benchmark sends.
type query struct {
	Name  string
	Table string
	SQL   string
}

// appendOp is one write of daily_churn: a new part file for a hot table.
type appendOp struct {
	Table string
	Rows  [][]datum.Datum
}

// dataset is everything generated from the seed: the Table II tables as part
// files, the distinct queries, and the writes daily_churn issues.
type dataset struct {
	schema    orc.Schema
	tables    []string
	parts     map[string][][][]datum.Datum
	recurring []query    // Q1..Q10, Zipf rank order
	wildcard  query      // QW
	adhoc     []query    // A01.., projections of paths no replayed query reads
	appends   []appendOp // daily_churn's writes under traffic
	idle      []appendOp // appends timed after the traffic
}

// all lists every distinct query of the dataset.
func (d *dataset) all() []query {
	out := append([]query(nil), d.recurring...)
	out = append(out, d.wildcard)
	return append(out, d.adhoc...)
}

// hotTables receive daily_churn's appends, in turn: the tables of the three
// most popular recurring queries.
var hotTables = []string{"t01", "t02", "t03"}

// genDataset builds the inputs from the seed, with nAppends part files of
// fresh documents for daily_churn to append.
func genDataset(seed int64, nAppends int) (*dataset, error) {
	w := experiments.BuildWorkload(rowsPerTable, seed)
	d := &dataset{parts: map[string][][][]datum.Datum{}}
	for _, spec := range w.Specs {
		info, err := w.WH.Table(w.DB, spec.Table)
		if err != nil {
			return nil, err
		}
		d.schema = info.Schema
		d.tables = append(d.tables, spec.Table)
		for _, f := range info.Files {
			rows, err := readPart(w, f)
			if err != nil {
				return nil, err
			}
			d.parts[spec.Table] = append(d.parts[spec.Table], rows)
		}
		d.recurring = append(d.recurring, query{Name: spec.Name, Table: spec.Table, SQL: w.SQL[spec.Name]})
	}
	d.wildcard = query{Name: experiments.WildcardQuery, Table: "t03", SQL: w.SQL[experiments.WildcardQuery]}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, spec := range w.Specs {
		seen := map[string]bool{}
		for _, p := range w.Paths[spec.Name] {
			seen[p] = true
		}
		doc := d.parts[spec.Table][0][0][2].S
		leaves, err := leafPaths(doc)
		if err != nil {
			return nil, err
		}
		var unseen []string
		for _, p := range leaves {
			if !seen[p] && !strings.Contains(p, "[") {
				unseen = append(unseen, p)
			}
		}
		for i := 0; i < adhocPerTab; i++ {
			rng.Shuffle(len(unseen), func(a, b int) { unseen[a], unseen[b] = unseen[b], unseen[a] })
			n := min(adhocPaths, len(unseen))
			var cols []string
			for j, p := range unseen[:n] {
				cols = append(cols, fmt.Sprintf("get_json_object(payload, '%s') a%d", p, j))
			}
			d.adhoc = append(d.adhoc, query{
				Name:  fmt.Sprintf("A%02d", len(d.adhoc)+1),
				Table: spec.Table,
				SQL: fmt.Sprintf("SELECT id, %s FROM %s.%s ORDER BY id LIMIT 20",
					strings.Join(cols, ", "), db, spec.Table),
			})
		}
	}

	// Appends cycle through the hot tables. The idle ones, timed after the
	// traffic, re-append loaded rows; daily_churn's are fresh documents of
	// the same shapes from a second generator run (ids restart at 0, which
	// no query depends on).
	for i := 0; i < idleAppends; i++ {
		t := hotTables[i%len(hotTables)]
		rows := d.parts[t][0]
		off := (i / len(hotTables) * appendRows) % (len(rows) - appendRows + 1)
		d.idle = append(d.idle, appendOp{Table: t, Rows: rows[off : off+appendRows]})
	}
	if nAppends > 0 {
		per := (nAppends + len(hotTables) - 1) / len(hotTables)
		extra := experiments.BuildWorkload(per*appendRows, seed+1)
		fresh := map[string][][]datum.Datum{}
		for _, t := range hotTables {
			info, err := extra.WH.Table(extra.DB, t)
			if err != nil {
				return nil, err
			}
			for _, f := range info.Files {
				part, err := readPart(extra, f)
				if err != nil {
					return nil, err
				}
				fresh[t] = append(fresh[t], part...)
			}
		}
		for i := 0; i < nAppends; i++ {
			t := hotTables[i%len(hotTables)]
			off := i / len(hotTables) * appendRows
			d.appends = append(d.appends, appendOp{Table: t, Rows: fresh[t][off : off+appendRows]})
		}
	}
	return d, nil
}

func readPart(w *experiments.Workload, path string) ([][]datum.Datum, error) {
	r, err := w.WH.OpenFile(path)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(r.Schema().Columns))
	for i, c := range r.Schema().Columns {
		cols[i] = c.Name
	}
	cur, err := r.NewCursor(cols, nil, nil)
	if err != nil {
		return nil, err
	}
	var out [][]datum.Datum
	for {
		row, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, append([]datum.Datum(nil), row...))
	}
}

// leafPaths lists the JSONPath of every scalar in doc, in sorted order.
func leafPaths(doc string) ([]string, error) {
	root, err := sjson.ParseString(doc)
	if err != nil {
		return nil, err
	}
	var out []string
	var walk func(prefix string, v *sjson.Value)
	walk = func(prefix string, v *sjson.Value) {
		switch v.Kind() {
		case sjson.KindObject:
			for _, m := range v.Members() {
				walk(prefix+"."+m.Key, m.Value)
			}
		case sjson.KindArray:
			for i, e := range v.Elements() {
				walk(fmt.Sprintf("%s[%d]", prefix, i), e)
			}
		default:
			out = append(out, prefix)
		}
	}
	walk("$", root)
	sort.Strings(out)
	return out, nil
}

// env is one ready system: loaded, replayed, cycled, with its oracle.
type env struct {
	sys    *maxson.System
	data   *dataset
	oracle *oracle
	// warmCycle is the wall time of the warm-up midnight cycle, warmReport
	// the report of the last set-up cycle.
	warmCycle  time.Duration
	warmReport *maxson.CycleReport
}

// newSystem starts the system as cmd/maxson-serve does by default: tree
// (Jackson) backend, flight recorder on, 64 MiB budget, 2 ms share window.
func newSystem() *maxson.System {
	return maxson.NewSystem(maxson.SystemConfig{
		DefaultDB:        db,
		CacheBudgetBytes: budgetBytes,
		Logger:           slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
		ScanShareWindow:  shareWindow,
	})
}

// setup builds one ready environment for workload w: generate the data, load
// it, replay replayDays days of the recurring mix at mid-day on the
// simulated clock, run the warm-up midnight cycle and compute the reference
// results, for every distinct query when oracleAll is set and otherwise for
// those w sends. The clock is left at mid-day so live traffic feeds the
// collector.
func setup(ctx context.Context, w *workload, seed int64, nAppends int, oracleAll bool) (*env, error) {
	data, err := genDataset(seed, nAppends)
	if err != nil {
		return nil, fmt.Errorf("generate data: %w", err)
	}
	e := &env{sys: newSystem(), data: data}
	wh := e.sys.Warehouse()
	wh.CreateDatabase(db)
	for _, t := range data.tables {
		if err := wh.CreateTable(db, t, data.schema); err != nil {
			return nil, err
		}
		for _, rows := range data.parts[t] {
			if _, err := wh.AppendRows(db, t, rows); err != nil {
				return nil, fmt.Errorf("load %s: %w", t, err)
			}
		}
	}
	for day := 0; day < replayDays; day++ {
		e.sys.AdvanceClock(10 * time.Hour)
		if err := replayDay(ctx, e.sys, data.recurring); err != nil {
			return nil, err
		}
		e.sys.AdvanceToMidnight()
	}
	t0 := time.Now()
	if _, err := e.sys.RunMidnightCycleCtx(ctx); err != nil {
		return nil, fmt.Errorf("warm-up cycle: %w", err)
	}
	e.warmCycle = time.Since(t0)
	if w.budgetShare < 1 {
		// Re-run the same night's cycle under a budget that holds only a
		// share of what the full budget cached.
		e.sys.Core().BudgetBytes = int64(float64(e.sys.CacheBytes()) * w.budgetShare)
		if _, err := e.sys.RunMidnightCycleCtx(ctx); err != nil {
			return nil, fmt.Errorf("reduced-budget cycle: %w", err)
		}
	}
	e.warmReport = e.sys.Core().LastCycle()
	e.sys.AdvanceClock(10 * time.Hour)
	queries := w.queries(data)
	if oracleAll {
		queries = data.all()
	}
	e.oracle, err = newOracle(ctx, data, queries, data.appends)
	if err != nil {
		return nil, fmt.Errorf("reference results: %w", err)
	}
	return e, nil
}

// replayDay runs the recurring mix replayPerDay times, the sessions
// concurrently as a day's users would.
func replayDay(ctx context.Context, sys *maxson.System, qs []query) error {
	errs := make(chan error, replayPerDay)
	for rep := 0; rep < replayPerDay; rep++ {
		go func() {
			for _, q := range qs {
				if _, _, err := sys.QueryCtx(ctx, q.SQL); err != nil {
					errs <- fmt.Errorf("replay %s: %w", q.Name, err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for rep := 0; rep < replayPerDay; rep++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
