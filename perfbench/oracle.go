package main

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/dfs"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// result is one query answer as /v1/query renders it.
type result struct {
	Columns []string
	Rows    [][]string
}

func render(rs *sqlengine.ResultSet) result {
	out := result{Columns: rs.Columns, Rows: make([][]string, len(rs.Rows))}
	for i, row := range rs.Rows {
		out.Rows[i] = make([]string, len(row))
		for j, d := range row {
			out.Rows[i][j] = d.AsString()
		}
	}
	return out
}

func (r result) equal(o result) bool {
	return slices.Equal(r.Columns, o.Columns) &&
		slices.EqualFunc(r.Rows, o.Rows, func(a, b []string) bool { return slices.Equal(a, b) })
}

// oracle holds reference answers from an uncached, unshared engine over its
// own copy of the data, for every version of every table the run writes.
type oracle struct {
	// refs maps a query name to its answer after 0, 1, 2, ... appends to the
	// query's table.
	refs map[string][]result
}

// newOracle answers queries on the loaded data and again after each of
// appends, in order.
func newOracle(ctx context.Context, data *dataset, queries []query, appends []appendOp) (*oracle, error) {
	wh := warehouse.New(dfs.New())
	wh.CreateDatabase(db)
	for _, t := range data.tables {
		if err := wh.CreateTable(db, t, data.schema); err != nil {
			return nil, err
		}
		for _, rows := range data.parts[t] {
			if _, err := wh.AppendRows(db, t, rows); err != nil {
				return nil, err
			}
		}
	}
	eng := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB(db))
	o := &oracle{refs: map[string][]result{}}
	answer := func(q query) error {
		rs, _, err := eng.QueryCtx(ctx, q.SQL)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		o.refs[q.Name] = append(o.refs[q.Name], render(rs))
		return nil
	}
	for _, q := range queries {
		if err := answer(q); err != nil {
			return nil, err
		}
	}
	for _, a := range appends {
		if _, err := wh.AppendRows(db, a.Table, a.Rows); err != nil {
			return nil, err
		}
		for _, q := range queries {
			if q.Table == a.Table {
				if err := answer(q); err != nil {
					return nil, err
				}
			}
		}
	}
	return o, nil
}

// check reports whether got is the answer to the named query at some table
// version in [lo, hi]: the versions visible while the request was in flight.
func (o *oracle) check(name string, lo, hi int, got result) bool {
	refs := o.refs[name]
	for v := lo; v <= hi && v < len(refs); v++ {
		if refs[v].equal(got) {
			return true
		}
	}
	return false
}
