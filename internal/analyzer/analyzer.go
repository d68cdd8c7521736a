// Package analyzer performs semantic analysis: it resolves a parsed
// SELECT statement against the catalog, type-checks every expression and
// produces the logical plan (TableScan → Filter → Project → Aggregate →
// Sort/Limit → Output) that the optimizer and connectors then rewrite.
//
// Two rewrites happen here because they must be engine-wide invariants:
//
//   - AVG decomposition: avg(x) becomes sum(x) and count(x) measures plus
//     a final division projection, so distributed (and pushed-down)
//     aggregation stays exact.
//   - Aggregate-argument projection: when an aggregate's argument is a
//     non-column expression (TPC-H Q1's sum(extendedprice*(1-discount))),
//     a pre-aggregation Project computes it — the "expression projection"
//     operator the paper's Deep Water and TPC-H plans contain.
package analyzer

import (
	"fmt"
	"strings"

	"prestocs/internal/expr"
	"prestocs/internal/plan"
	"prestocs/internal/sqlparser"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// Resolver supplies connector table handles during analysis (implemented
// by the engine's catalog registry).
type Resolver interface {
	// ResolveTable returns the handle for catalog.table. The handle's
	// ScanSchema is the table's full schema at this point.
	ResolveTable(catalog, table string) (plan.TableHandle, error)
}

// Analyze builds a logical plan for the statement. defaultCatalog is used
// for unqualified table names.
func Analyze(stmt *sqlparser.SelectStmt, resolver Resolver, defaultCatalog string) (plan.Node, error) {
	if len(stmt.Joins) > 1 {
		return nil, fmt.Errorf("analyzer: at most one JOIN per query is supported")
	}
	a := &analysis{stmt: stmt}

	resolveRef := func(ref sqlparser.TableRef) (string, *plan.TableScan, error) {
		catalog := ref.Name.Schema
		if catalog == "" {
			catalog = defaultCatalog
		}
		handle, err := resolver.ResolveTable(catalog, ref.Name.Table)
		if err != nil {
			return "", nil, err
		}
		return catalog, &plan.TableScan{Catalog: catalog, Table: ref.Name.Table, Handle: handle}, nil
	}

	_, leftScan, err := resolveRef(stmt.From)
	if err != nil {
		return nil, err
	}
	a.scopes = append(a.scopes, scope{
		alias:  stmt.From.Alias,
		table:  stmt.From.Name.Table,
		schema: leftScan.Handle.ScanSchema(),
		offset: 0,
	})

	var root plan.Node
	if len(stmt.Joins) == 1 {
		_, rightScan, err := resolveRef(stmt.Joins[0].Table)
		if err != nil {
			return nil, err
		}
		a.scopes = append(a.scopes, scope{
			alias:  stmt.Joins[0].Table.Alias,
			table:  stmt.Joins[0].Table.Name.Table,
			schema: rightScan.Handle.ScanSchema(),
			offset: a.scopes[0].schema.Len(),
		})
		a.baseSchema = combineSchemas(a.scopes[0].schema, a.scopes[1].schema)
		root, err = a.buildJoin(leftScan, rightScan)
		if err != nil {
			return nil, err
		}
	} else {
		a.baseSchema = leftScan.Handle.ScanSchema()
		root = leftScan
		// WHERE.
		if stmt.Where != nil {
			cond, err := a.resolveWhere()
			if err != nil {
				return nil, err
			}
			root = &plan.Filter{Input: root, Condition: cond}
		}
	}

	hasAgg := len(stmt.GroupBy) > 0
	for _, item := range stmt.Items {
		if containsAggregate(item.Expr) {
			hasAgg = true
		}
	}

	var outNames []string
	if hasAgg {
		root, outNames, err = a.buildAggregation(root)
		if err != nil {
			return nil, err
		}
	} else {
		root, outNames, err = a.buildProjection(root)
		if err != nil {
			return nil, err
		}
	}

	// ORDER BY against the projected output.
	if len(stmt.OrderBy) > 0 {
		keys, err := a.resolveOrderBy(root.OutputSchema(), outNames)
		if err != nil {
			return nil, err
		}
		root = &plan.Sort{Input: root, Keys: keys}
	}
	if stmt.Limit >= 0 {
		root = &plan.Limit{Input: root, Count: stmt.Limit}
	}
	return &plan.Output{Input: root, Names: outNames}, nil
}

type analysis struct {
	stmt       *sqlparser.SelectStmt
	baseSchema *types.Schema
	// scopes are the FROM-clause tables in source order; with a join the
	// baseSchema is their column concatenation and each scope records its
	// ordinal offset into it.
	scopes []scope
}

// scope is one FROM-clause table visible to name resolution.
type scope struct {
	alias  string // "" when the table was not aliased
	table  string
	schema *types.Schema
	offset int
}

// matches reports whether a qualifier refers to this scope: the alias
// when one was declared, else the table name (standard SQL hides the
// table name behind an alias).
func (s scope) matches(qualifier string) bool {
	if s.alias != "" {
		return strings.EqualFold(s.alias, qualifier)
	}
	return strings.EqualFold(s.table, qualifier)
}

func combineSchemas(l, r *types.Schema) *types.Schema {
	cols := make([]types.Column, 0, l.Len()+r.Len())
	cols = append(cols, l.Columns...)
	cols = append(cols, r.Columns...)
	return types.NewSchema(cols...)
}

// resolveWhere resolves the WHERE clause against the base schema and
// type-checks it to boolean.
func (a *analysis) resolveWhere() (expr.Expr, error) {
	cond, err := a.resolveScalar(a.stmt.Where, a.baseSchema)
	if err != nil {
		return nil, fmt.Errorf("analyzer: WHERE: %w", err)
	}
	cond = expr.FoldConstants(cond)
	if cond.Type() != types.Bool {
		return nil, fmt.Errorf("analyzer: WHERE clause has type %s", cond.Type())
	}
	return cond, nil
}

// buildJoin plans `FROM left JOIN right ON ...` with the WHERE clause
// split by scope: conjuncts touching only one table become a Filter
// directly above that table's scan (so connector pushdown sees them),
// mixed conjuncts filter above the join. The ON clause must be a
// conjunction of equality comparisons between one column from each side.
func (a *analysis) buildJoin(probe, build *plan.TableScan) (plan.Node, error) {
	leftWidth := a.scopes[0].schema.Len()

	// ON: extract positionally-paired equi-keys.
	on, err := a.resolveScalar(a.stmt.Joins[0].On, a.baseSchema)
	if err != nil {
		return nil, fmt.Errorf("analyzer: ON: %w", err)
	}
	var probeKeys, buildKeys []int
	for _, c := range expr.Conjuncts(on) {
		cmp, ok := c.(*expr.Compare)
		if !ok || cmp.Op != expr.Eq {
			return nil, fmt.Errorf("analyzer: ON supports equality conjunctions only, got %s", c)
		}
		l, lok := cmp.L.(*expr.ColumnRef)
		r, rok := cmp.R.(*expr.ColumnRef)
		if !lok || !rok {
			return nil, fmt.Errorf("analyzer: ON keys must be plain columns, got %s", c)
		}
		if r.Index < leftWidth && l.Index >= leftWidth {
			l, r = r, l // normalize to left = probe side
		}
		if l.Index >= leftWidth || r.Index < leftWidth {
			return nil, fmt.Errorf("analyzer: ON must compare one column from each table, got %s", c)
		}
		if l.Kind != r.Kind {
			return nil, fmt.Errorf("analyzer: ON key type mismatch: %s is %s, %s is %s", l.Name, l.Kind, r.Name, r.Kind)
		}
		probeKeys = append(probeKeys, l.Index)
		buildKeys = append(buildKeys, r.Index-leftWidth)
	}

	// WHERE: route each conjunct to the narrowest scope that covers it.
	var probeConj, buildConj, crossConj []expr.Expr
	if a.stmt.Where != nil {
		cond, err := a.resolveWhere()
		if err != nil {
			return nil, err
		}
		buildRemap := make(map[int]int, a.scopes[1].schema.Len())
		for i := 0; i < a.scopes[1].schema.Len(); i++ {
			buildRemap[leftWidth+i] = i
		}
		for _, c := range expr.Conjuncts(cond) {
			refs := expr.ReferencedColumns(c)
			onProbe, onBuild := false, false
			for _, idx := range refs {
				if idx < leftWidth {
					onProbe = true
				} else {
					onBuild = true
				}
			}
			switch {
			case onBuild && !onProbe:
				remapped, err := expr.Remap(c, buildRemap)
				if err != nil {
					return nil, err
				}
				buildConj = append(buildConj, remapped)
			case onProbe && onBuild:
				crossConj = append(crossConj, c)
			default: // probe-only (and constant) conjuncts
				probeConj = append(probeConj, c)
			}
		}
	}

	var probeSide plan.Node = probe
	if p := expr.AndAll(probeConj); p != nil {
		probeSide = &plan.Filter{Input: probeSide, Condition: p}
	}
	var buildSide plan.Node = build
	if p := expr.AndAll(buildConj); p != nil {
		buildSide = &plan.Filter{Input: buildSide, Condition: p}
	}
	var root plan.Node = &plan.Join{
		Probe:     probeSide,
		Build:     buildSide,
		ProbeKeys: probeKeys,
		BuildKeys: buildKeys,
	}
	if p := expr.AndAll(crossConj); p != nil {
		root = &plan.Filter{Input: root, Condition: p}
	}
	return root, nil
}

// buildProjection handles non-aggregate selects.
func (a *analysis) buildProjection(input plan.Node) (plan.Node, []string, error) {
	var exprs []expr.Expr
	var names []string
	for _, item := range a.stmt.Items {
		// `SELECT *` expands to every base-schema column in order.
		if _, isStar := item.Expr.(*sqlparser.Star); isStar {
			for i, c := range a.baseSchema.Columns {
				exprs = append(exprs, expr.Col(i, c.Name, c.Type))
				names = append(names, c.Name)
			}
			continue
		}
		e, err := a.resolveScalar(item.Expr, a.baseSchema)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, expr.FoldConstants(e))
		names = append(names, itemName(item))
	}
	return &plan.Project{Input: input, Expressions: exprs, Names: names}, names, nil
}

// aggKey dedups measures by function + argument text.
type aggKey struct {
	fn  substrait.AggFunc
	arg string
}

// buildAggregation handles aggregate selects: optional pre-projection,
// single-step Aggregate, then the final projection computing the select
// list (including avg division) over keys+measures.
func (a *analysis) buildAggregation(input plan.Node) (plan.Node, []string, error) {
	// Resolve group keys against the base schema; they must be columns.
	var keyCols []*expr.ColumnRef
	for _, g := range a.stmt.GroupBy {
		e, err := a.resolveScalar(g, a.baseSchema)
		if err != nil {
			return nil, nil, fmt.Errorf("analyzer: GROUP BY: %w", err)
		}
		col, ok := e.(*expr.ColumnRef)
		if !ok {
			return nil, nil, fmt.Errorf("analyzer: GROUP BY supports columns only, got %s", e)
		}
		keyCols = append(keyCols, col)
	}

	// Collect aggregate calls and their argument expressions.
	type pendingAgg struct {
		fn  substrait.AggFunc
		arg expr.Expr // nil for count(*)
	}
	var pending []pendingAgg
	measureOf := map[aggKey]int{} // -> measure index

	addAgg := func(fn substrait.AggFunc, arg expr.Expr) int {
		key := aggKey{fn: fn, arg: ""}
		if arg != nil {
			key.arg = arg.String()
		}
		if idx, ok := measureOf[key]; ok {
			return idx
		}
		idx := len(pending)
		measureOf[key] = idx
		pending = append(pending, pendingAgg{fn: fn, arg: arg})
		return idx
	}

	// First pass over select items: register measures (with avg split
	// into sum+count).
	type itemPlan struct {
		node sqlparser.Node
		name string
	}
	items := make([]itemPlan, len(a.stmt.Items))
	for i, item := range a.stmt.Items {
		items[i] = itemPlan{node: item.Expr, name: itemName(item)}
		if err := a.registerAggs(item.Expr, addAgg); err != nil {
			return nil, nil, err
		}
	}

	// Decide whether a pre-aggregation projection is needed: any measure
	// argument that is not a bare column.
	needsProject := false
	for _, p := range pending {
		if p.arg == nil {
			continue
		}
		if _, ok := p.arg.(*expr.ColumnRef); !ok {
			needsProject = true
		}
	}

	var aggInput plan.Node
	var keys []int
	var measures []substrait.Measure
	if needsProject {
		// Pre-project: group keys first, then one column per measure arg.
		var pexprs []expr.Expr
		var pnames []string
		for _, k := range keyCols {
			pexprs = append(pexprs, k)
			pnames = append(pnames, k.Name)
		}
		for i, p := range pending {
			if p.arg == nil {
				continue
			}
			pexprs = append(pexprs, p.arg)
			pnames = append(pnames, fmt.Sprintf("$arg%d", i))
		}
		aggInput = &plan.Project{Input: input, Expressions: pexprs, Names: pnames}
		for i := range keyCols {
			keys = append(keys, i)
		}
		argPos := len(keyCols)
		for i, p := range pending {
			m := substrait.Measure{Func: p.fn, Arg: -1, Name: fmt.Sprintf("$agg%d", i)}
			if p.arg != nil {
				m.Arg = argPos
				argPos++
			}
			measures = append(measures, m)
		}
	} else {
		aggInput = input
		for _, k := range keyCols {
			keys = append(keys, k.Index)
		}
		for i, p := range pending {
			m := substrait.Measure{Func: p.fn, Arg: -1, Name: fmt.Sprintf("$agg%d", i)}
			if p.arg != nil {
				m.Arg = p.arg.(*expr.ColumnRef).Index
			}
			measures = append(measures, m)
		}
	}
	if len(keys) == 0 && len(measures) == 0 {
		return nil, nil, fmt.Errorf("analyzer: aggregation without keys or measures")
	}
	agg := &plan.Aggregate{Input: aggInput, Keys: keys, Measures: measures, Step: plan.AggSingle}
	aggSchema := agg.OutputSchema()

	// Final projection: rewrite each select item over keys+measures.
	var fexprs []expr.Expr
	var fnames []string
	for _, item := range items {
		e, err := a.rewriteOverAgg(item.node, aggSchema, keyCols, measureOf, len(keyCols))
		if err != nil {
			return nil, nil, err
		}
		fexprs = append(fexprs, e)
		fnames = append(fnames, item.name)
	}
	final := &plan.Project{Input: agg, Expressions: fexprs, Names: fnames}
	return final, fnames, nil
}

// registerAggs walks a select item registering aggregate measures.
func (a *analysis) registerAggs(node sqlparser.Node, addAgg func(substrait.AggFunc, expr.Expr) int) error {
	switch t := node.(type) {
	case *sqlparser.FuncCall:
		fn, ok := aggFuncName(t.Name)
		if !ok {
			return fmt.Errorf("analyzer: unknown function %q", t.Name)
		}
		if len(t.Args) != 1 {
			return fmt.Errorf("analyzer: %s takes one argument", t.Name)
		}
		if _, isStar := t.Args[0].(*sqlparser.Star); isStar {
			if fn != "count" {
				return fmt.Errorf("analyzer: %s(*) is not valid", t.Name)
			}
			addAgg(substrait.AggCountStar, nil)
			return nil
		}
		arg, err := a.resolveScalar(t.Args[0], a.baseSchema)
		if err != nil {
			return err
		}
		arg = expr.FoldConstants(arg)
		if fn == "avg" {
			if !arg.Type().Numeric() {
				return fmt.Errorf("analyzer: avg over %s", arg.Type())
			}
			addAgg(substrait.AggSum, arg)
			addAgg(substrait.AggCount, arg)
			return nil
		}
		if _, err := substrait.AggFunc(fn).ResultKind(arg.Type()); err != nil {
			return err
		}
		addAgg(substrait.AggFunc(fn), arg)
		return nil
	case *sqlparser.Binary:
		if err := a.registerAggs(t.L, addAgg); err != nil {
			return err
		}
		return a.registerAggs(t.R, addAgg)
	case *sqlparser.Unary:
		return a.registerAggs(t.E, addAgg)
	case *sqlparser.CastNode:
		return a.registerAggs(t.E, addAgg)
	default:
		return nil
	}
}

// rewriteOverAgg converts a select-item AST into an expression over the
// aggregate output schema (keys then measures).
func (a *analysis) rewriteOverAgg(node sqlparser.Node, aggSchema *types.Schema, keyCols []*expr.ColumnRef, measureOf map[aggKey]int, numKeys int) (expr.Expr, error) {
	switch t := node.(type) {
	case *sqlparser.FuncCall:
		fn, ok := aggFuncName(t.Name)
		if !ok {
			return nil, fmt.Errorf("analyzer: unknown function %q", t.Name)
		}
		if _, isStar := t.Args[0].(*sqlparser.Star); isStar {
			idx := measureOf[aggKey{fn: substrait.AggCountStar}]
			return colOverAgg(aggSchema, numKeys+idx), nil
		}
		arg, err := a.resolveScalar(t.Args[0], a.baseSchema)
		if err != nil {
			return nil, err
		}
		arg = expr.FoldConstants(arg)
		argText := arg.String()
		if fn == "avg" {
			sumIdx := measureOf[aggKey{fn: substrait.AggSum, arg: argText}]
			cntIdx := measureOf[aggKey{fn: substrait.AggCount, arg: argText}]
			sumCol := colOverAgg(aggSchema, numKeys+sumIdx)
			cntCol := colOverAgg(aggSchema, numKeys+cntIdx)
			// avg = CAST(sum AS DOUBLE) / CAST(count AS DOUBLE).
			return expr.NewArith(expr.Div,
				&expr.Cast{E: sumCol, To: types.Float64},
				&expr.Cast{E: cntCol, To: types.Float64})
		}
		idx, ok := measureOf[aggKey{fn: substrait.AggFunc(fn), arg: argText}]
		if !ok {
			return nil, fmt.Errorf("analyzer: internal: measure %s(%s) not registered", fn, argText)
		}
		return colOverAgg(aggSchema, numKeys+idx), nil
	case *sqlparser.Ident:
		// Match by resolved base-schema ordinal, not by name: with a join
		// in scope, two tables can both have the column and only the
		// qualifier disambiguates which one was grouped on.
		ref, err := a.resolveScalar(t, a.baseSchema)
		if err != nil {
			return nil, err
		}
		col, ok := ref.(*expr.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("analyzer: internal: ident %s resolved to %T", t, ref)
		}
		for i, k := range keyCols {
			if k.Index == col.Index {
				return colOverAgg(aggSchema, i), nil
			}
		}
		return nil, fmt.Errorf("analyzer: column %q must appear in GROUP BY or inside an aggregate", t.String())
	case *sqlparser.Binary:
		l, err := a.rewriteOverAgg(t.L, aggSchema, keyCols, measureOf, numKeys)
		if err != nil {
			return nil, err
		}
		r, err := a.rewriteOverAgg(t.R, aggSchema, keyCols, measureOf, numKeys)
		if err != nil {
			return nil, err
		}
		return combineBinary(t.Op, l, r)
	case *sqlparser.Unary:
		inner, err := a.rewriteOverAgg(t.E, aggSchema, keyCols, measureOf, numKeys)
		if err != nil {
			return nil, err
		}
		return combineUnary(t.Op, inner)
	case *sqlparser.CastNode:
		inner, err := a.rewriteOverAgg(t.E, aggSchema, keyCols, measureOf, numKeys)
		if err != nil {
			return nil, err
		}
		kind, err := types.ParseKind(t.TypeName)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{E: inner, To: kind}, nil
	case *sqlparser.NumberLit, *sqlparser.StringLit, *sqlparser.BoolLit, *sqlparser.NullLit, *sqlparser.DateLit, *sqlparser.IntervalLit:
		return a.resolveScalar(node, types.NewSchema())
	default:
		return nil, fmt.Errorf("analyzer: unsupported expression %T in aggregate select", node)
	}
}

func colOverAgg(schema *types.Schema, ordinal int) *expr.ColumnRef {
	c := schema.Columns[ordinal]
	return expr.Col(ordinal, c.Name, c.Type)
}

// resolveOrderBy maps each ORDER BY expression to an output ordinal: a
// select alias, a select-item name or a bare 1-based position.
func (a *analysis) resolveOrderBy(outSchema *types.Schema, outNames []string) ([]plan.SortKey, error) {
	byName := map[string]int{}
	for i, n := range outNames {
		byName[strings.ToLower(n)] = i
	}
	var keys []plan.SortKey
	for _, item := range a.stmt.OrderBy {
		var ordinal = -1
		switch t := item.Expr.(type) {
		case *sqlparser.Ident:
			// Try the rendered form first so `ORDER BY l.orderkey` matches
			// the unaliased select item "l.orderkey"; fall back to the bare
			// column name for aliases.
			if idx, ok := byName[strings.ToLower(t.String())]; ok {
				ordinal = idx
			} else if idx, ok := byName[strings.ToLower(t.Name)]; ok {
				ordinal = idx
			}
		case *sqlparser.NumberLit:
			var n int
			if _, err := fmt.Sscanf(t.Text, "%d", &n); err == nil && n >= 1 && n <= outSchema.Len() {
				ordinal = n - 1
			}
		}
		if ordinal < 0 {
			return nil, fmt.Errorf("analyzer: ORDER BY %s does not match any output column", item.Expr)
		}
		keys = append(keys, plan.SortKey{Column: ordinal, Descending: item.Desc})
	}
	return keys, nil
}

// resolveScalar converts a non-aggregate AST expression against a schema.
func (a *analysis) resolveScalar(node sqlparser.Node, schema *types.Schema) (expr.Expr, error) {
	switch t := node.(type) {
	case *sqlparser.Ident:
		// Against the base schema, resolution is scope-aware: qualifiers
		// select a FROM-clause table and unqualified names must be
		// unambiguous across them. Derived schemas (aggregate outputs)
		// have a single namespace.
		if schema == a.baseSchema && len(a.scopes) > 0 {
			idx, err := a.resolveInScopes(t)
			if err != nil {
				return nil, err
			}
			return expr.Col(idx, schema.Columns[idx].Name, schema.Columns[idx].Type), nil
		}
		if t.Qualifier != "" {
			return nil, fmt.Errorf("analyzer: qualified column %s not allowed here", t)
		}
		idx := indexIn(schema, t.Name)
		if idx < 0 {
			return nil, fmt.Errorf("analyzer: unknown column %q", t.Name)
		}
		return expr.Col(idx, schema.Columns[idx].Name, schema.Columns[idx].Type), nil
	case *sqlparser.NumberLit:
		if strings.ContainsAny(t.Text, ".eE") {
			v, err := types.ParseValue(t.Text, types.Float64)
			if err != nil {
				return nil, err
			}
			return expr.Lit(v), nil
		}
		v, err := types.ParseValue(t.Text, types.Int64)
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil
	case *sqlparser.StringLit:
		return expr.Lit(types.StringValue(t.Value)), nil
	case *sqlparser.BoolLit:
		return expr.Lit(types.BoolValue(t.Value)), nil
	case *sqlparser.NullLit:
		return expr.Lit(types.NullValue(types.Unknown)), nil
	case *sqlparser.DateLit:
		v, err := types.DateFromString(t.Text)
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil
	case *sqlparser.IntervalLit:
		// Interval-days participate in date arithmetic as plain integers.
		return expr.Lit(types.IntValue(t.Days)), nil
	case *sqlparser.Binary:
		l, err := a.resolveScalar(t.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := a.resolveScalar(t.R, schema)
		if err != nil {
			return nil, err
		}
		return combineBinary(t.Op, l, r)
	case *sqlparser.Unary:
		inner, err := a.resolveScalar(t.E, schema)
		if err != nil {
			return nil, err
		}
		return combineUnary(t.Op, inner)
	case *sqlparser.BetweenNode:
		e, err := a.resolveScalar(t.E, schema)
		if err != nil {
			return nil, err
		}
		lo, err := a.resolveScalar(t.Lo, schema)
		if err != nil {
			return nil, err
		}
		hi, err := a.resolveScalar(t.Hi, schema)
		if err != nil {
			return nil, err
		}
		b, err := expr.NewBetween(e, lo, hi)
		if err != nil {
			return nil, err
		}
		if t.Negate {
			return expr.NewNot(b)
		}
		return b, nil
	case *sqlparser.IsNullNode:
		e, err := a.resolveScalar(t.E, schema)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: e, Negate: t.Negate}, nil
	case *sqlparser.CastNode:
		e, err := a.resolveScalar(t.E, schema)
		if err != nil {
			return nil, err
		}
		kind, err := types.ParseKind(t.TypeName)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{E: e, To: kind}, nil
	case *sqlparser.FuncCall:
		return nil, fmt.Errorf("analyzer: aggregate %q not allowed here", t.Name)
	case *sqlparser.Star:
		return nil, fmt.Errorf("analyzer: * not allowed here")
	default:
		return nil, fmt.Errorf("analyzer: unsupported expression %T", node)
	}
}

// indexIn finds a column by name, exact match first then
// case-insensitive.
func indexIn(schema *types.Schema, name string) int {
	if idx := schema.IndexOf(name); idx >= 0 {
		return idx
	}
	for i, c := range schema.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// resolveInScopes resolves an identifier against the FROM-clause tables,
// returning its base-schema ordinal.
func (a *analysis) resolveInScopes(id *sqlparser.Ident) (int, error) {
	if id.Qualifier != "" {
		for _, s := range a.scopes {
			if !s.matches(id.Qualifier) {
				continue
			}
			if i := indexIn(s.schema, id.Name); i >= 0 {
				return s.offset + i, nil
			}
			return -1, fmt.Errorf("analyzer: unknown column %q in table %q", id.Name, id.Qualifier)
		}
		return -1, fmt.Errorf("analyzer: unknown table or alias %q", id.Qualifier)
	}
	found, matches := -1, 0
	for _, s := range a.scopes {
		if i := indexIn(s.schema, id.Name); i >= 0 {
			found = s.offset + i
			matches++
		}
	}
	switch {
	case matches > 1:
		return -1, fmt.Errorf("analyzer: column %q is ambiguous; qualify it with a table alias", id.Name)
	case found < 0:
		return -1, fmt.Errorf("analyzer: unknown column %q", id.Name)
	}
	return found, nil
}

func combineBinary(op string, l, r expr.Expr) (expr.Expr, error) {
	switch op {
	case "+":
		return expr.NewArith(expr.Add, l, r)
	case "-":
		return expr.NewArith(expr.Sub, l, r)
	case "*":
		return expr.NewArith(expr.Mul, l, r)
	case "/":
		return expr.NewArith(expr.Div, l, r)
	case "%":
		return expr.NewArith(expr.Mod, l, r)
	case "=":
		return expr.NewCompare(expr.Eq, l, r)
	case "<>":
		return expr.NewCompare(expr.Ne, l, r)
	case "<":
		return expr.NewCompare(expr.Lt, l, r)
	case "<=":
		return expr.NewCompare(expr.Le, l, r)
	case ">":
		return expr.NewCompare(expr.Gt, l, r)
	case ">=":
		return expr.NewCompare(expr.Ge, l, r)
	case "AND":
		return expr.NewLogic(expr.And, l, r)
	case "OR":
		return expr.NewLogic(expr.Or, l, r)
	default:
		return nil, fmt.Errorf("analyzer: unknown operator %q", op)
	}
}

func combineUnary(op string, e expr.Expr) (expr.Expr, error) {
	switch op {
	case "NOT":
		return expr.NewNot(e)
	case "-":
		if e.Type() == types.Float64 {
			return expr.NewArith(expr.Sub, expr.Lit(types.FloatValue(0)), e)
		}
		return expr.NewArith(expr.Sub, expr.Lit(types.IntValue(0)), e)
	default:
		return nil, fmt.Errorf("analyzer: unknown unary %q", op)
	}
}

func containsAggregate(node sqlparser.Node) bool {
	switch t := node.(type) {
	case *sqlparser.FuncCall:
		_, ok := aggFuncName(t.Name)
		return ok
	case *sqlparser.Binary:
		return containsAggregate(t.L) || containsAggregate(t.R)
	case *sqlparser.Unary:
		return containsAggregate(t.E)
	case *sqlparser.BetweenNode:
		return containsAggregate(t.E) || containsAggregate(t.Lo) || containsAggregate(t.Hi)
	case *sqlparser.CastNode:
		return containsAggregate(t.E)
	default:
		return false
	}
}

// aggFuncName recognizes aggregate function names ("avg" included; it is
// decomposed before reaching execution).
func aggFuncName(name string) (string, bool) {
	switch name {
	case "min", "max", "sum", "count", "avg":
		return name, true
	default:
		return "", false
	}
}

func itemName(item sqlparser.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	return item.Expr.String()
}
