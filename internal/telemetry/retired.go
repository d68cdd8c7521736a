package telemetry

// Retired metric names. The engine-side table-metadata cache that
// registered these series is gone (table resolution reads the in-process
// metastore directly), so nothing registers them any more and a scrape
// never shows them. They are declared here, outside the names.go
// manifest, only so that the perfbench ledger, which still reads them and
// reports cache.meta_hit_ratio (now always 0), keeps compiling.
const (
	MetricMetaCacheHits   = "cache_meta_hits_total"
	MetricMetaCacheMisses = "cache_meta_misses_total"
)
