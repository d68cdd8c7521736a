package engine

import (
	"fmt"
	"strings"

	"prestocs/internal/telemetry"
)

// observeQuery closes out a query's telemetry: the root span gets the
// final ScanStats copied on as durations and attributes, and the metrics
// registry gets one observation per engine_query_* series. Both read the
// same QueryStats the harness's Table-3 breakdown reads, so the profile,
// the /metrics endpoint and the paper numbers can never disagree.
func (e *Engine) observeQuery(qspan *telemetry.Span, stats *QueryStats, err error) {
	scan := stats.Scan.Snapshot()

	if qspan != nil {
		// Table-3 stage totals, verbatim from ScanStats: tests assert
		// exact equality between these and the snapshot.
		qspan.AddDuration("substrait_gen", scan.SubstraitGen)
		qspan.AddDuration("transfer", scan.Transfer)
		qspan.SetAttr("bytes_moved", fmt.Sprint(scan.BytesMoved))
		qspan.SetAttr("deserialize_units", fmt.Sprintf("%.1f", scan.DeserializeUnits))
		qspan.SetAttr("result_rows", fmt.Sprint(stats.ResultRows))
		qspan.SetAttr("splits", fmt.Sprint(stats.Splits))
		if scan.FallbackSplits > 0 {
			qspan.SetAttr("fallback_splits", fmt.Sprint(scan.FallbackSplits))
		}
		if scan.SplitsPruned > 0 {
			qspan.SetAttr("splits_pruned", fmt.Sprint(scan.SplitsPruned))
		}
		if stats.UsedPushdown {
			qspan.SetAttr("pushdown", strings.Join(stats.PushedDown, ","))
		}
		if stats.Join {
			qspan.SetAttr("join_build_rows", fmt.Sprint(stats.JoinBuildRows))
		}
		if err != nil {
			qspan.Event("error", err.Error())
		}
		qspan.End()
	}

	reg := e.Metrics
	reg.Counter(telemetry.MetricQueryTotal).Inc()
	if err != nil {
		reg.Counter(telemetry.MetricQueryErrors).Inc()
	}
	reg.Histogram(telemetry.MetricQueryLatency).ObserveDuration(stats.Total)
	reg.Histogram(telemetry.MetricQuerySubstraitGen).ObserveDuration(scan.SubstraitGen)
	reg.Histogram(telemetry.MetricQueryTransfer).ObserveDuration(scan.Transfer)
	reg.Counter(telemetry.MetricQueryBytesMoved).Add(scan.BytesMoved)
	reg.Counter(telemetry.MetricQueryFallbacks).Add(scan.FallbackSplits)
	reg.Counter(telemetry.MetricQuerySplitsPruned).Add(scan.SplitsPruned)
	reg.Counter(telemetry.MetricQueryResultRows).Add(int64(stats.ResultRows))
	if stats.UsedPushdown {
		reg.Counter(telemetry.MetricQueryPushdown).Inc()
	}
	if stats.Join {
		reg.Counter(telemetry.MetricQueryJoins).Inc()
		reg.Counter(telemetry.MetricJoinBuildRows).Add(stats.JoinBuildRows)
	}
	reg.Counter(telemetry.MetricJoinBloomPushdown).Add(scan.JoinBloomSplits)
	reg.Counter(telemetry.MetricJoinBloomRejected).Add(scan.JoinBloomRejected)
}
