package main

import (
	"context"
	"sync"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/harness"
)

const (
	kindQuery  = "query"
	kindInsert = "insert"
)

// op is one operation a client issues.
type op struct {
	label string // cell name, e.g. "tpch/filter"
	sql   string
	mode  string // ocs.pushdown session value
	ref   *answer
}

// sample is the outcome of one operation.
type sample struct {
	kind    string
	label   string
	start   time.Time
	dur     time.Duration
	failed  bool // error, shed or wrong answer
	inexact bool // a float matched only within tolerance
	why     string
	moved   int64 // bytes across the compute/storage boundary
	rows    int64 // rows inserted
	sql     string
	mode    string
}

// recorder collects samples from every client goroutine.
type recorder struct {
	// stats, when set, accumulates the engine's per-query report
	// (traced runs).
	stats *statsAgg

	mu      sync.Mutex
	samples []sample
	counts  map[string]int
	// compactions are the [start, end) intervals of Compactor.RunOnce.
	compactions [][2]time.Time
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	if r.counts == nil {
		r.counts = make(map[string]int)
	}
	r.counts[s.kind]++
	r.mu.Unlock()
}

func (r *recorder) count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[kind]
}

// query runs one query and checks its answer with check.
func (r *recorder) query(c *harness.Cluster, o op, check func(*column.Page) verdict) sample {
	start := time.Now()
	res, dur, err := submit(context.Background(), c, o.sql, o.mode)
	s := sample{kind: kindQuery, label: o.label, start: start, dur: dur, sql: o.sql, mode: o.mode}
	if err != nil {
		s.failed, s.why = true, err.Error()
	} else {
		v := check(res.Page)
		s.failed, s.inexact, s.why = !v.ok, v.ok && !v.exact, v.why
		s.moved = res.Stats.Scan.Snapshot().BytesMoved
		if r.stats != nil {
			r.stats.add(c, res.Stats)
		}
	}
	r.add(s)
	return s
}

// enough reports whether the run may stop: the deadline has passed and
// every latency series holds enough samples for its tail percentile,
// or the hard limit has passed.
func enough(r *recorder, deadline, limit time.Time, kinds ...string) bool {
	now := time.Now()
	if now.After(limit) {
		return true
	}
	if now.Before(deadline) {
		return false
	}
	need := samplesFor(tailPercentile, minBeyond)
	for _, k := range kinds {
		if r.count(k) < need {
			return false
		}
	}
	return true
}
