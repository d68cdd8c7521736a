// Command perfbench is the repository's end-to-end benchmark. It drives
// the in-process topology (engine → OCS frontend → storage node over
// loopback) with one of three workloads, checks every answer against a
// reference computed from the generated data, and prints every metric
// by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload paper-scan --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// repeats the run on a cluster with telemetry on, replays sampled
// queries layer by layer, prints the per-layer ledger and reports the
// per-layer metrics. --repeat N runs N seeds in child processes and
// prints each metric's median and quartile spread. See README.md for the
// workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"prestocs/internal/harness"
)

// setupReps is how many times a run sets the cluster up; setup_s is the
// median.
const setupReps = 5

// runner is one workload.
type runner interface {
	// sizes reports the generated tables for the sizing report.
	sizes() []tableSize
	// load stores and registers the inputs in a fresh cluster and warms
	// it up.
	load(c *harness.Cluster) error
	// measure drives the workload's clients until the deadline has
	// passed and each latency series has enough samples (or the limit
	// has passed). It returns the time the workload was active and any
	// workload-specific end-to-end metrics.
	measure(c *harness.Cluster, deadline, limit time.Time, rec *recorder) (time.Duration, map[string]metric, error)
	// replayOps are the operations the traced run replays layer by layer.
	replayOps() []op
}

// workloadDef names a workload and generates its inputs from a seed.
// Why each workload is in the benchmark is written once, in
// BENCHMARK.json, and archived from there with every result.
type workloadDef struct {
	name string
	make func(seed int64) (runner, error)
}

var workloads = []workloadDef{
	{"paper-scan", func(s int64) (runner, error) { return newPaperScan(s) }},
	{"point-hot", func(s int64) (runner, error) { return newPointHot(s) }},
	{"ingest-join", func(s int64) (runner, error) { return newIngestJoin(s) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contractEndToEnd are the end-to-end metrics every workload reports
// on the last line with --trace 0; they apply to every workload.
var contractEndToEnd = []string{"setup_s", "query_p50_ms", "query_p95_ms", "queries_per_s", "moved_kb_per_query", "alloc_mb_per_op", "live_heap_mb"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: paper-scan, point-hot or ingest-join")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	repeat := flag.Int("repeat", 0, "steadiness check: run this many seeds per workload and print each metric's spread")
	out := flag.String("out", ".bench_build", "directory for result archives and span dumps")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if *repeat > 0 {
		return steadiness(*name, *seed, *seconds, *repeat, *out)
	}
	def, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	meta := collectMeta(def, *seed, *seconds, *trace)
	meta.print()

	genStart := time.Now()
	w, err := def.make(*seed)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Printf("# inputs generated in %.2f s (not part of setup_s)\n", time.Since(genStart).Seconds())
	printSizes(w.sizes())

	var setups []float64
	var c *harness.Cluster
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.Close()
			c = nil
		}
		// Garbage from input generation or the previous set-up is
		// collected before the clock starts, not inside a set-up.
		runtime.GC()
		start := time.Now()
		c, err = startCluster(false)
		if err == nil {
			err = w.load(c)
		}
		if err != nil {
			if c != nil {
				c.Close()
			}
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m, err := measureRun(c, w, *seconds, nil)
	c.Close()
	if err != nil {
		return err
	}
	m.values["setup_s"] = metric{median(setups), "s"}
	printMetrics("end-to-end", m.values)
	for _, s := range m.wrong {
		fmt.Fprintln(os.Stderr, "wrong or failed:", s)
	}

	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if *trace == 0 {
		for _, k := range contractEndToEnd {
			res.Metrics[k] = m.values[k]
		}
	} else {
		layers, traced, err := tracedRun(w, def.name, *seed, *seconds, m, *out)
		if err != nil {
			return err
		}
		res.Metrics = layers
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Correct = res.Failed == 0
	}
	archive(*out, meta, m.values, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measured is the outcome of one measured run.
type measured struct {
	values    map[string]metric
	attempted int
	failed    int
	wrong     []string
}

// measureRun drives the workload for the run length and derives the
// end-to-end metrics. Allocation counts the whole process (client,
// engine, frontend and storage node share it).
func measureRun(c *harness.Cluster, w runner, seconds int, stats *statsAgg) (*measured, error) {
	rec := &recorder{stats: stats}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	run := time.Duration(seconds) * time.Second
	active, extra, err := w.measure(c, start.Add(run), start.Add(3*run), rec)
	if err != nil {
		return nil, fmt.Errorf("measuring: %w", err)
	}
	runtime.ReadMemStats(&after)

	m := &measured{values: map[string]metric{}}
	var qLat, iLat []float64
	byLabel := map[string][]float64{}
	var moved, rows int64
	var inexact int
	for _, s := range rec.samples {
		m.attempted++
		if s.failed {
			m.failed++
			if len(m.wrong) < 5 {
				m.wrong = append(m.wrong, fmt.Sprintf("%s %s: %s", s.label, s.mode, s.why))
			}
			continue
		}
		if s.inexact {
			inexact++
		}
		ms := float64(s.dur) / float64(time.Millisecond)
		switch s.kind {
		case kindQuery:
			qLat = append(qLat, ms)
			byLabel[s.label] = append(byLabel[s.label], ms)
			moved += s.moved
		case kindInsert:
			iLat = append(iLat, ms)
			rows += s.rows
		}
	}
	if len(qLat) == 0 {
		return nil, errors.New("no query completed")
	}
	sec := active.Seconds()
	v := m.values
	v["query_p50_ms"] = metric{classMedian(byLabel), "ms"}
	v["query_pooled_p50_ms"] = metric{median(qLat), "ms"}
	v["query_p95_ms"] = metric{percentile(qLat, tailPercentile), "ms"}
	v["query_samples"] = metric{float64(len(qLat)), "count"}
	v["query_beyond_p95"] = metric{float64(beyond(len(qLat), tailPercentile)), "count"}
	v["queries_per_s"] = metric{float64(len(qLat)) / sec, "1/s"}
	v["moved_kb_per_query"] = metric{float64(moved) / 1024 / float64(len(qLat)), "KB"}
	v["alloc_mb_per_op"] = metric{mib(int64(after.TotalAlloc-before.TotalAlloc)) / float64(m.attempted), "MiB"}
	v["error_rate"] = metric{float64(m.failed) / float64(m.attempted), "ratio"}
	v["float_nonbitidentical"] = metric{float64(inexact), "count"}
	if len(iLat) > 0 {
		v["insert_p50_ms"] = metric{median(iLat), "ms"}
		v["insert_p95_ms"] = metric{percentile(iLat, tailPercentile), "ms"}
		v["insert_samples"] = metric{float64(len(iLat)), "count"}
		v["insert_beyond_p95"] = metric{float64(beyond(len(iLat), tailPercentile)), "count"}
		v["ingest_rows_per_s"] = metric{float64(rows) / sec, "rows/s"}
	}
	for k, x := range extra {
		v[k] = x
	}
	if len(rec.compactions) > 0 {
		compactMs, stallMs := compactionLatency(rec)
		v["ingest.compact_ms"] = metric{compactMs, "ms"}
		v["ingest.compact_stall_ms"] = metric{stallMs, "ms"}
	}
	printCells(rec)
	// The live heap is read once the benchmark's own samples are
	// garbage, so it shows what the cluster keeps.
	rec.samples = nil
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	v["live_heap_mb"] = metric{mib(int64(live.HeapAlloc)), "MiB"}
	return m, nil
}

// printCells prints latency and data movement per operation label (per
// query and pushdown mode on paper-scan).
func printCells(rec *recorder) {
	lat := map[string][]float64{}
	moved := map[string]int64{}
	for _, s := range rec.samples {
		if s.failed {
			continue
		}
		k := s.kind + " " + s.label
		lat[k] = append(lat[k], float64(s.dur)/float64(time.Millisecond))
		moved[k] += s.moved
	}
	keys := make([]string, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("# per operation")
	for _, k := range keys {
		n := len(lat[k])
		fmt.Printf("%-36s n %6d  p50 %9.3f ms  moved %11.2f KB/op\n", k, n, median(lat[k]), float64(moved[k])/1024/float64(n))
	}
}

// classMedian is the geometric mean, over the workload's query classes
// (paper-scan cells, point-hot templates), of each class's median
// latency. The median of the pooled latencies is a poor summary of a
// mix whose classes differ tenfold: it falls in a gap between two
// classes and jumps between runs, and it does not move when a class
// away from the middle gets faster.
func classMedian(byLabel map[string][]float64) float64 {
	var logSum float64
	for _, lat := range byLabel {
		logSum += math.Log(median(lat))
	}
	return math.Exp(logSum / float64(len(byLabel)))
}

func mib(n int64) float64 { return float64(n) / (1 << 20) }

func printMetrics(title string, values map[string]metric) {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# %s metrics\n", title)
	for _, k := range keys {
		fmt.Printf("%-44s %14.4f %s\n", k, values[k].Value, values[k].Unit)
	}
}

// printSizes is the sizing report: generated rows, stored bytes and the
// decoded bytes the workload's scans touch, against the page cache.
func printSizes(sizes []tableSize) {
	fmt.Printf("# sizing (node page cache budget %.1f MiB)\n", mib(pageCacheBudget))
	var touched int64
	for _, s := range sizes {
		fmt.Printf("table %-10s rows %9d  stored %8.2f MiB  raw %8.2f MiB  decoded touched %8.2f MiB\n",
			s.name, s.rows, mib(s.stored), mib(s.raw), mib(s.touched))
		touched += s.touched
	}
	fmt.Printf("decoded touched total %.2f MiB = %.2fx the page cache\n", mib(touched), float64(touched)/float64(pageCacheBudget))
}

// archive writes the run's metadata and every metric next to the build
// output, so each result carries the machine and code it came from.
func archive(dir string, meta runMeta, values map[string]metric, res result) {
	path := filepath.Join(dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", meta.Workload, meta.Seed, meta.Trace))
	body, err := json.MarshalIndent(map[string]any{"meta": meta, "end_to_end": values, "result": res}, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, body, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: archiving result:", err)
	}
}
