package ocs

import (
	"sync"
	"time"

	"prestocs/internal/engine"
)

// Record is one completed query in the pushdown history.
type Record struct {
	When       time.Time
	SQL        string
	Table      string
	Pushed     []string
	BytesMoved int64
	Duration   time.Duration
	Succeeded  bool
	// Fallbacks counts splits that degraded from pushdown to the
	// raw-scan path during this query; nonzero means the query
	// succeeded despite pushdown failures.
	Fallbacks int64
	// SplitsPruned counts splits dropped before scheduling because
	// per-object statistics proved the pushed-down filter false.
	SplitsPruned int64
}

// Monitor is the connector's EventListener: it keeps a sliding window of
// recent executions (the paper's "pushdown history component") from which
// success rates and data-movement trends can be read to inform future
// optimization decisions.
type Monitor struct {
	mu      sync.Mutex
	window  []Record
	size    int
	next    int
	filled  bool
	total   int64
	success int64
	// policy, when set, receives each completion so the adaptive pushdown
	// policy's plan-time advice (AdvisePlanPushdown) tracks the same
	// events the window does.
	policy *Policy
}

// NewMonitor creates a monitor keeping the last size records.
func NewMonitor(size int) *Monitor {
	if size <= 0 {
		size = 64
	}
	return &Monitor{window: make([]Record, size), size: size}
}

// QueryCompleted implements engine.EventListener.
func (m *Monitor) QueryCompleted(ev engine.QueryEvent) {
	rec := Record{
		When:      time.Now(),
		SQL:       ev.SQL,
		Table:     ev.Table,
		Succeeded: ev.Err == nil,
	}
	if ev.Stats != nil {
		scan := ev.Stats.Scan.Snapshot()
		rec.Pushed = ev.Stats.PushedDown
		rec.BytesMoved = scan.BytesMoved
		rec.Fallbacks = scan.FallbackSplits
		rec.SplitsPruned = scan.SplitsPruned
		rec.Duration = ev.Stats.Total
	}
	m.mu.Lock()
	m.window[m.next] = rec
	m.next = (m.next + 1) % m.size
	if m.next == 0 {
		m.filled = true
	}
	m.total++
	if rec.Succeeded {
		m.success++
	}
	policy := m.policy
	m.mu.Unlock()
	if policy != nil {
		policy.queryCompleted(rec.Succeeded)
	}
}

// Window returns the records currently retained, oldest first.
func (m *Monitor) Window() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Record
	if m.filled {
		out = append(out, m.window[m.next:]...)
	}
	out = append(out, m.window[:m.next]...)
	return out
}

// SuccessRate returns the lifetime fraction of successful queries (1.0
// when none have run).
func (m *Monitor) SuccessRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.total == 0 {
		return 1
	}
	return float64(m.success) / float64(m.total)
}

// Total returns the lifetime query count.
func (m *Monitor) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// AvgBytesMoved averages data movement over the retained window for
// queries whose pushdown list matches exactly (nil matches everything).
func (m *Monitor) AvgBytesMoved(pushed []string) int64 {
	records := m.Window()
	var sum, n int64
	for _, r := range records {
		if pushed != nil && !sameOps(r.Pushed, pushed) {
			continue
		}
		sum += r.BytesMoved
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func sameOps(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
