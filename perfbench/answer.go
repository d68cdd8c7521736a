package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// floatTolerance is the relative error a float aggregate may carry.
// Float SUM is order-dependent in the engine (partials merge in split
// arrival order), so an exact float answer cannot be demanded yet;
// answers inside the tolerance but not bit-identical are counted
// separately so the defect stays visible.
const floatTolerance = 1e-9

// orderKey is one ORDER BY column of a result.
type orderKey struct {
	col  int
	desc bool
}

// answer is a reference result computed from the generated data,
// independently of the engine and the pushdown mode under test.
type answer struct {
	// keyCols identify a result row; every reference row has a unique
	// key.
	keyCols []int
	// rows holds every row a correct result may contain, by key. Under
	// ORDER BY ... LIMIT it also holds rows tied with the last kept row,
	// since SQL lets either side of a tie through.
	rows map[string][]types.Value
	// n is the exact row count of a correct result.
	n int
	// order lists the ORDER BY columns; nil means the result is a set.
	order []orderKey
}

// verdict is the outcome of checking one result.
type verdict struct {
	ok bool
	// exact is false when some float matched only within tolerance.
	exact bool
	why   string
}

// rowKey renders the key columns of a row.
func rowKey(row []types.Value, keyCols []int) string {
	var b strings.Builder
	for i, c := range keyCols {
		if i > 0 {
			b.WriteByte('|')
		}
		if row[c].Null {
			b.WriteString("NULL")
			continue
		}
		fmt.Fprintf(&b, "%d:%s", row[c].Kind, row[c].String())
	}
	return b.String()
}

// newAnswer builds a reference from its full row set. With a limit it
// keeps the first limit rows in the given order plus every row tied
// (within tolerance) with the last kept one.
func newAnswer(rows [][]types.Value, keyCols []int, order []orderKey, limit int) *answer {
	a := &answer{keyCols: keyCols, order: order, rows: make(map[string][]types.Value, len(rows))}
	if len(order) > 0 {
		sort.SliceStable(rows, func(i, j int) bool { return orderCmp(rows[i], rows[j], order) < 0 })
	}
	keep := len(rows)
	if limit > 0 && limit < keep {
		keep = limit
		for keep < len(rows) && orderCmp(rows[limit-1], rows[keep], order) == 0 {
			keep++
		}
		a.n = limit
	} else {
		a.n = len(rows)
	}
	for _, r := range rows[:keep] {
		a.rows[rowKey(r, keyCols)] = r
	}
	return a
}

// orderCmp compares two rows on the ORDER BY columns, treating floats
// within tolerance as equal.
func orderCmp(a, b []types.Value, order []orderKey) int {
	for _, k := range order {
		c := valueCmp(a[k.col], b[k.col])
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func valueCmp(a, b types.Value) int {
	if a.Kind == types.Float64 && b.Kind == types.Float64 && !a.Null && !b.Null {
		if ok, _ := floatMatch(a.F, b.F); ok {
			return 0
		}
	}
	return types.Compare(a, b)
}

// floatMatch reports whether got matches want within the relative
// tolerance, and whether the two are bit-identical. NaN matches NaN of
// any payload; -0 matches +0 but is not bit-identical to it.
func floatMatch(got, want float64) (ok, exact bool) {
	if math.Float64bits(got) == math.Float64bits(want) {
		return true, true
	}
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want), false
	}
	if got == want {
		return true, false
	}
	if math.IsInf(got, 0) || math.IsInf(want, 0) {
		return false, false
	}
	return math.Abs(got-want) <= floatTolerance*math.Max(math.Abs(got), math.Abs(want)), false
}

// valueMatch compares one result value with its reference: integers,
// dates and strings exactly, floats within tolerance.
func valueMatch(got, want types.Value) (ok, exact bool) {
	if got.Null || want.Null {
		return got.Null == want.Null, got.Null == want.Null
	}
	if got.Kind != want.Kind {
		return false, false
	}
	if got.Kind == types.Float64 {
		return floatMatch(got.F, want.F)
	}
	return types.Compare(got, want) == 0, true
}

// check compares a result page with the reference.
func (a *answer) check(page *column.Page) verdict {
	if page == nil {
		return verdict{why: "no result page"}
	}
	n := page.NumRows()
	if n != a.n {
		return verdict{why: fmt.Sprintf("row count %d, want %d", n, a.n)}
	}
	v := verdict{ok: true, exact: true}
	seen := make(map[string]bool, n)
	var prev []types.Value
	for i := 0; i < n; i++ {
		row := page.Row(i)
		key := rowKey(row, a.keyCols)
		want, found := a.rows[key]
		if !found || seen[key] {
			return verdict{why: fmt.Sprintf("unexpected or repeated row %s", key)}
		}
		seen[key] = true
		if len(row) != len(want) {
			return verdict{why: fmt.Sprintf("row %s has %d columns, want %d", key, len(row), len(want))}
		}
		for c := range row {
			ok, exact := valueMatch(row[c], want[c])
			if !ok {
				return verdict{why: fmt.Sprintf("row %s column %d: got %v, want %v", key, c, row[c], want[c])}
			}
			v.exact = v.exact && exact
		}
		if prev != nil && len(a.order) > 0 && orderCmp(prev, row, a.order) > 0 {
			return verdict{why: fmt.Sprintf("row %s out of ORDER BY order", key)}
		}
		prev = row
	}
	return v
}
