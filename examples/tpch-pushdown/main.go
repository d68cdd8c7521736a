// tpch-pushdown runs TPC-H Query 1 — the paper's business-OLAP case
// (Figure 5c) — against both connectors: the conventional Hive connector
// (S3 Select-style filter-only pushdown, CSV results) and the Presto-OCS
// connector (aggregation pushdown, Arrow results), printing the Q1
// aggregate table and the cost of each path.
//
//	go run ./examples/tpch-pushdown
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/harness"
	"prestocs/internal/workload"
)

func main() {
	cluster, err := harness.StartCluster(1)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	dataset, err := workload.TPCH(workload.Config{Files: 8, RowsPerFile: 16384, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Load(dataset); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lineitem: %d rows in %d objects (%.1f MB)\n\n",
		dataset.Table.RowCount, len(dataset.Table.Objects), float64(dataset.Table.TotalBytes)/1e6)

	// OCS connector with full pushdown.
	session := engine.NewSession().Set(ocsconn.SessionPushdown, "filter_project_agg")
	q, err := cluster.Engine.Submit(context.Background(), dataset.Query, engine.WithSession(session))
	if err != nil {
		log.Fatal(err)
	}
	ocsRes, err := q.Result()
	if err != nil {
		log.Fatal(err)
	}

	// Hive connector: same query, S3 Select path (filter-only).
	hiveQuery := strings.Replace(dataset.Query, "FROM lineitem", "FROM hive.lineitem", 1)
	q, err = cluster.Engine.Submit(context.Background(), hiveQuery)
	if err != nil {
		log.Fatal(err)
	}
	hiveRes, err := q.Result()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("TPC-H Q1 result (OCS connector, aggregation pushed into storage):")
	printQ1(ocsRes)

	ocsScan := ocsRes.Stats.Scan.Snapshot()
	hiveScan := hiveRes.Stats.Scan.Snapshot()
	fmt.Printf("\n%-28s %18s %18s\n", "", "hive (S3-Select)", "presto-ocs")
	fmt.Printf("%-28s %18v %18v\n", "pushed operators",
		strings.Join(hiveRes.Stats.PushedDown, "+"), strings.Join(ocsRes.Stats.PushedDown, "+"))
	fmt.Printf("%-28s %18d %18d\n", "bytes moved", hiveScan.BytesMoved, ocsScan.BytesMoved)
	fmt.Printf("%-28s %18v %18v\n", "wall time",
		hiveRes.Stats.Total.Round(time.Millisecond), ocsRes.Stats.Total.Round(time.Millisecond))

	if hiveRes.Page.NumRows() != ocsRes.Page.NumRows() {
		log.Fatalf("connectors disagree: %d vs %d rows", hiveRes.Page.NumRows(), ocsRes.Page.NumRows())
	}
	fmt.Println("\nBoth connectors return identical Q1 aggregates; OCS moves a fraction of the bytes.")
}

func printQ1(res *engine.Result) {
	names := res.Schema.Names()
	fmt.Printf("  %-10s %-10s %12s %16s %14s\n", names[0], names[1], names[2], names[4], names[9])
	for i := 0; i < res.Page.NumRows(); i++ {
		row := res.Page.Row(i)
		fmt.Printf("  %-10s %-10s %12.0f %16.2f %14d\n",
			row[0].S, row[1].S, row[2].F, row[4].F, row[9].I)
	}
}
