// Package optimizer implements the engine's global (rule-based) optimizer,
// the phase the paper's Figure 3 labels "Logical Optimization". Rules:
//
//  1. FuseSortLimit: Limit(Sort(x)) → TopN, the form OCS can execute.
//  2. PruneColumns: push column projection into the table scan handle so
//     storage reads only referenced columns (object storage's selective
//     column retrieval, §2.2).
//  3. AddExchange: decompose the plan into a distributed leaf stage (per
//     split, on workers) and a final stage (coordinator) — Aggregate
//     splits into partial+final, TopN and Limit replicate, Sort stays
//     final. The connector's local optimizer then runs on the leaf stage.
package optimizer

import (
	"fmt"

	"prestocs/internal/expr"
	"prestocs/internal/plan"
	"prestocs/internal/substrait"
)

// Optimize applies all global rules in order. Join plans take the
// dedicated path: the leaf/final split lands inside the probe branch.
func Optimize(root plan.Node) (plan.Node, error) {
	if plan.FindJoin(root) != nil {
		return optimizeJoin(root)
	}
	root = fuseSortLimit(root)
	root, err := pruneColumns(root)
	if err != nil {
		return nil, err
	}
	return addExchange(root)
}

// optimizeJoin handles plans with a Join node. The probe side is the
// distributed branch, so the Exchange goes directly above it — the
// connector's local optimizer then sees a normal [Exchange, …, Scan]
// leaf chain and can push filters (and later the build side's bloom)
// into storage. The build side is drained centrally before any probe
// split runs, and everything above the join (cross-side filters,
// aggregation, ordering) stays on the final stage. Limit(Sort) above
// the join still fuses into TopN.
func optimizeJoin(root plan.Node) (plan.Node, error) {
	chain, join, err := flattenToJoin(root)
	if err != nil {
		return nil, err
	}
	// Fuse Limit(Sort(x)) → TopN within the above-join chain.
	var above []plan.Node
	for i := 0; i < len(chain); i++ {
		if lim, ok := chain[i].(*plan.Limit); ok && i+1 < len(chain) {
			if srt, ok := chain[i+1].(*plan.Sort); ok {
				above = append(above, &plan.TopN{Keys: srt.Keys, Count: lim.Count})
				i++
				continue
			}
		}
		above = append(above, chain[i])
	}
	if _, err := flatten(&plan.Exchange{Input: join.Probe}); err != nil {
		return nil, fmt.Errorf("optimizer: join probe branch: %w", err)
	}
	if _, err := flatten(join.Build); err != nil {
		return nil, fmt.Errorf("optimizer: join build branch: %w", err)
	}
	node := plan.Node(&plan.Join{
		Probe:     &plan.Exchange{Input: join.Probe},
		Build:     join.Build,
		ProbeKeys: join.ProbeKeys,
		BuildKeys: join.BuildKeys,
	})
	for i := len(above) - 1; i >= 0; i-- {
		next, err := plan.ReplaceChild(above[i], node)
		if err != nil {
			return nil, err
		}
		node = next
	}
	return node, nil
}

// flattenToJoin renders the single-child spine from root down to the
// Join node (exclusive): chain[len-1] is the Join's parent. An empty
// chain means the Join is the root.
func flattenToJoin(root plan.Node) ([]plan.Node, *plan.Join, error) {
	var chain []plan.Node
	n := root
	for {
		if j, ok := n.(*plan.Join); ok {
			return chain, j, nil
		}
		kids := n.Children()
		if len(kids) != 1 {
			return nil, nil, fmt.Errorf("optimizer: unexpected %T above join", n)
		}
		chain = append(chain, n)
		n = kids[0]
	}
}

// flatten renders the linear plan as a slice from root down to the scan.
// Plans in this engine are single-table chains; a non-linear plan is an
// internal error.
func flatten(root plan.Node) ([]plan.Node, error) {
	var chain []plan.Node
	n := root
	for {
		chain = append(chain, n)
		kids := n.(interface{ Children() []plan.Node }).Children()
		switch len(kids) {
		case 0:
			if _, ok := n.(*plan.TableScan); !ok {
				return nil, fmt.Errorf("optimizer: leaf node %T is not a scan", n)
			}
			return chain, nil
		case 1:
			n = kids[0]
		default:
			return nil, fmt.Errorf("optimizer: non-linear plan at %T", n)
		}
	}
}

// rebuild reconstructs a chain (root-first) bottom-up.
func rebuild(chain []plan.Node) (plan.Node, error) {
	node := chain[len(chain)-1]
	for i := len(chain) - 2; i >= 0; i-- {
		next, err := plan.ReplaceChild(chain[i], node)
		if err != nil {
			return nil, err
		}
		node = next
	}
	return node, nil
}

// fuseSortLimit rewrites Limit(Sort(x)) into TopN(x).
func fuseSortLimit(root plan.Node) plan.Node {
	chain, err := flatten(root)
	if err != nil {
		return root
	}
	var out []plan.Node
	for i := 0; i < len(chain); i++ {
		if lim, ok := chain[i].(*plan.Limit); ok && i+1 < len(chain) {
			if srt, ok := chain[i+1].(*plan.Sort); ok {
				out = append(out, &plan.TopN{Keys: srt.Keys, Count: lim.Count})
				i++ // skip the sort
				continue
			}
		}
		out = append(out, chain[i])
	}
	rebuilt, err := rebuild(out)
	if err != nil {
		return root
	}
	return rebuilt
}

// pruneColumns narrows the scan to the columns referenced by the leaf
// filters and the first schema-rebuilding node (Project or Aggregate),
// rewriting their ordinals to the pruned schema. Requires the handle to
// support projection.
func pruneColumns(root plan.Node) (plan.Node, error) {
	chain, err := flatten(root)
	if err != nil {
		return root, nil
	}
	scanIdx := len(chain) - 1
	scan := chain[scanIdx].(*plan.TableScan)
	projectable, ok := scan.Handle.(plan.ProjectableHandle)
	if !ok {
		return root, nil
	}
	baseSchema := scan.Handle.ScanSchema()

	// Walk upward from the scan collecting referenced ordinals until the
	// first schema rebuilder.
	needed := map[int]bool{}
	rebuilderIdx := -1
	for i := scanIdx - 1; i >= 0; i-- {
		switch t := chain[i].(type) {
		case *plan.Filter:
			for _, c := range expr.ReferencedColumns(t.Condition) {
				needed[c] = true
			}
		case *plan.Project:
			for _, e := range t.Expressions {
				for _, c := range expr.ReferencedColumns(e) {
					needed[c] = true
				}
			}
			rebuilderIdx = i
		case *plan.Aggregate:
			for _, k := range t.Keys {
				needed[k] = true
			}
			for _, m := range t.Measures {
				if m.Arg >= 0 {
					needed[m.Arg] = true
				}
			}
			rebuilderIdx = i
		default:
			// Sort/TopN/Limit/Output/Exchange pass the schema through;
			// without a rebuilder every column is needed.
		}
		if rebuilderIdx >= 0 {
			break
		}
	}
	if rebuilderIdx < 0 {
		return root, nil // no rebuilder: all columns remain visible
	}
	if len(needed) >= baseSchema.Len() {
		return root, nil // nothing to prune
	}

	// Build the projection list (sorted) and ordinal remapping.
	var cols []int
	for i := 0; i < baseSchema.Len(); i++ {
		if needed[i] {
			cols = append(cols, i)
		}
	}
	mapping := make(map[int]int, len(cols))
	for newIdx, oldIdx := range cols {
		mapping[oldIdx] = newIdx
	}

	newHandle := projectable.WithProjection(cols)
	out := make([]plan.Node, len(chain))
	copy(out, chain)
	out[scanIdx] = &plan.TableScan{Catalog: scan.Catalog, Table: scan.Table, Handle: newHandle}
	for i := scanIdx - 1; i >= rebuilderIdx; i-- {
		switch t := chain[i].(type) {
		case *plan.Filter:
			cond, err := expr.Remap(t.Condition, mapping)
			if err != nil {
				return nil, err
			}
			out[i] = &plan.Filter{Condition: cond}
		case *plan.Project:
			exprs := make([]expr.Expr, len(t.Expressions))
			for j, e := range t.Expressions {
				re, err := expr.Remap(e, mapping)
				if err != nil {
					return nil, err
				}
				exprs[j] = re
			}
			out[i] = &plan.Project{Expressions: exprs, Names: t.Names}
		case *plan.Aggregate:
			keys := make([]int, len(t.Keys))
			for j, k := range t.Keys {
				keys[j] = mapping[k]
			}
			measures := append([]substrait.Measure(nil), t.Measures...)
			for j := range measures {
				if measures[j].Arg >= 0 {
					measures[j].Arg = mapping[measures[j].Arg]
				}
			}
			out[i] = &plan.Aggregate{Keys: keys, Measures: measures, Step: t.Step}
		}
	}
	return rebuild(out)
}

// addExchange splits the chain into leaf and final stages.
func addExchange(root plan.Node) (plan.Node, error) {
	chain, err := flatten(root)
	if err != nil {
		return nil, err
	}
	// Walk from the scan upward.
	scanIdx := len(chain) - 1
	leaf := chain[scanIdx]
	i := scanIdx - 1
	var finalExtra []plan.Node // nodes to apply right above the exchange, bottom-first

buildLeaf:
	for i >= 0 {
		switch t := chain[i].(type) {
		case *plan.Filter, *plan.Project:
			next, err := plan.ReplaceChild(chain[i], leaf)
			if err != nil {
				return nil, err
			}
			leaf = next
			i--
		case *plan.Aggregate:
			if t.Step != plan.AggSingle {
				return nil, fmt.Errorf("optimizer: unexpected %s aggregate before exchange insertion", t.Step)
			}
			leaf = &plan.Aggregate{Input: leaf, Keys: t.Keys, Measures: t.Measures, Step: plan.AggPartial}
			finalKeys := make([]int, len(t.Keys))
			for j := range t.Keys {
				finalKeys[j] = j
			}
			finalExtra = append(finalExtra, &plan.Aggregate{Keys: finalKeys, Measures: t.Measures, Step: plan.AggFinal})
			i--
			break buildLeaf
		case *plan.TopN:
			leaf = &plan.TopN{Input: leaf, Keys: t.Keys, Count: t.Count, Partial: true}
			finalExtra = append(finalExtra, &plan.TopN{Keys: t.Keys, Count: t.Count})
			i--
			break buildLeaf
		case *plan.Limit:
			leaf = &plan.Limit{Input: leaf, Count: t.Count}
			finalExtra = append(finalExtra, &plan.Limit{Count: t.Count})
			i--
			break buildLeaf
		default:
			// Sort, Output: final-stage only.
			break buildLeaf
		}
	}

	node := plan.Node(&plan.Exchange{Input: leaf})
	for _, extra := range finalExtra {
		next, err := plan.ReplaceChild(extra, node)
		if err != nil {
			return nil, err
		}
		node = next
	}
	// Remaining chain nodes (indices i down to 0 in chain order) wrap on
	// top, bottom-first.
	for ; i >= 0; i-- {
		next, err := plan.ReplaceChild(chain[i], node)
		if err != nil {
			return nil, err
		}
		node = next
	}
	return node, nil
}
