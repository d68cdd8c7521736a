package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"prestocs/internal/column"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
)

// FooterCache holds decoded parquetlite footers (*FileMeta) keyed by
// object version, so repeated scans of a hot object prune and project
// straight from the cached metadata instead of re-decoding the footer.
// Decodes for the same cold key are coalesced through singleflight.
type FooterCache struct {
	lru *byteLRU
	sf  flight

	nHits, nMisses          atomic.Int64
	hits, misses, evictions *telemetry.Counter
	bytesG, hitRatio        *telemetry.Gauge
}

// NewFooterCache builds a footer cache with the given byte budget;
// budget <= 0 returns nil (methods on a nil cache fall through to plain
// decoding).
func NewFooterCache(budget int64) *FooterCache {
	if budget <= 0 {
		return nil
	}
	f := &FooterCache{}
	f.lru = newByteLRU(budget, func(string, int64) { f.evictions.Inc() })
	return f
}

// Instrument binds the footer cache's telemetry instruments; call before
// the cache serves queries.
func (f *FooterCache) Instrument(reg *telemetry.Registry, labels ...string) {
	if f == nil {
		return
	}
	f.hits = reg.Counter(telemetry.MetricFooterCacheHits, labels...)
	f.misses = reg.Counter(telemetry.MetricFooterCacheMisses, labels...)
	f.evictions = reg.Counter(telemetry.MetricFooterCacheEvictions, labels...)
	f.bytesG = reg.Gauge(telemetry.MetricFooterCacheBytes, labels...)
	f.hitRatio = reg.Gauge(telemetry.MetricFooterCacheHitRatio, labels...)
}

// Open returns a reader over data, serving the decoded footer from cache
// when this object version was opened before. key must come from
// ObjectKey so it changes whenever the stored bytes change. Nil-safe: a
// nil cache decodes the footer from the image, exactly as before.
func (f *FooterCache) Open(key string, data []byte) (*parquetlite.Reader, error) {
	if f == nil {
		return parquetlite.NewReader(data)
	}
	if v, ok := f.lru.get(key); ok {
		f.hit()
		return parquetlite.NewReaderWithMeta(data, v.(*parquetlite.FileMeta))
	}
	f.miss()
	v, _, err := f.sf.do(key, func() (any, error) {
		r, err := parquetlite.NewReader(data)
		if err != nil {
			return nil, err
		}
		meta := r.Meta()
		f.lru.put(key, meta, footerSize(meta))
		f.bytesG.Set(f.lru.bytes())
		return meta, nil
	})
	if err != nil {
		return nil, err
	}
	return parquetlite.NewReaderWithMeta(data, v.(*parquetlite.FileMeta))
}

// footerSize estimates the in-memory footprint of a decoded footer: fixed
// schema overhead plus per-chunk metadata (offsets, sizes, min/max stats).
func footerSize(meta *parquetlite.FileMeta) int64 {
	n := int64(256)
	for _, rg := range meta.RowGroups {
		n += 32 + int64(len(rg.Chunks))*112
	}
	return n
}

func (f *FooterCache) hit() {
	f.hits.Inc()
	f.nHits.Add(1)
	updateRatio(f.hitRatio, &f.nHits, &f.nMisses)
}

func (f *FooterCache) miss() {
	f.misses.Inc()
	f.nMisses.Add(1)
	updateRatio(f.hitRatio, &f.nHits, &f.nMisses)
}

// pageGhostEntries bounds the two-touch ghost list: keys seen once but
// not yet admitted. Entries are just strings, so the bound is generous.
const pageGhostEntries = 8192

// PageCache holds decoded column chunks (*column.Vector) keyed by
// (object version, row group, column) under a byte budget. Cached
// vectors are shared read-only across queries — see the package comment
// for the immutability invariant that makes this sound.
//
// Admission is informed by zone-map selectivity: on pruning-heavy scans
// (callers pass twoTouch=true when at least half the row groups were
// pruned) a chunk is admitted only on its second sighting, tracked in a
// bounded ghost list, so chunks a selective workload never re-reads do
// not evict genuinely hot pages.
type PageCache struct {
	lru *byteLRU

	ghostMu sync.Mutex
	ghost   map[string]*list.Element
	ghostLL *list.List // FIFO of ghost keys, front = newest

	nHits, nMisses                    atomic.Int64
	hits, misses, evictions, rejected *telemetry.Counter
	bytesG, hitRatio                  *telemetry.Gauge
}

// NewPageCache builds a hot-page cache with the given byte budget;
// budget <= 0 returns nil (methods on a nil cache are no-ops).
func NewPageCache(budget int64) *PageCache {
	if budget <= 0 {
		return nil
	}
	p := &PageCache{
		ghost:   make(map[string]*list.Element),
		ghostLL: list.New(),
	}
	p.lru = newByteLRU(budget, func(string, int64) { p.evictions.Inc() })
	return p
}

// Instrument binds the page cache's telemetry instruments; call before
// the cache serves queries.
func (p *PageCache) Instrument(reg *telemetry.Registry, labels ...string) {
	if p == nil {
		return
	}
	p.hits = reg.Counter(telemetry.MetricPageCacheHits, labels...)
	p.misses = reg.Counter(telemetry.MetricPageCacheMisses, labels...)
	p.evictions = reg.Counter(telemetry.MetricPageCacheEvictions, labels...)
	p.rejected = reg.Counter(telemetry.MetricPageCacheRejected, labels...)
	p.bytesG = reg.Gauge(telemetry.MetricPageCacheBytes, labels...)
	p.hitRatio = reg.Gauge(telemetry.MetricPageCacheHitRatio, labels...)
}

// Get returns the cached chunk for key, counting the lookup. Nil-safe.
func (p *PageCache) Get(key string) (*column.Vector, bool) {
	if p == nil {
		return nil, false
	}
	v, ok := p.lru.get(key)
	if !ok {
		p.miss()
		return nil, false
	}
	p.hit()
	return v.(*column.Vector), true
}

// Put caches one decoded chunk. With twoTouch set (pruning-heavy scan),
// the chunk is admitted only if its key is already in the ghost list —
// i.e. this is at least the second time the workload decoded it.
// Nil-safe.
func (p *PageCache) Put(key string, vec *column.Vector, twoTouch bool) {
	if p == nil {
		return
	}
	if twoTouch && !p.secondTouch(key) {
		p.rejected.Inc()
		return
	}
	p.lru.put(key, vec, vec.ByteSize()+int64(len(key)))
	p.bytesG.Set(p.lru.bytes())
}

// secondTouch reports whether key was seen before, recording it when not.
func (p *PageCache) secondTouch(key string) bool {
	p.ghostMu.Lock()
	defer p.ghostMu.Unlock()
	if el, ok := p.ghost[key]; ok {
		p.ghostLL.Remove(el)
		delete(p.ghost, key)
		return true
	}
	p.ghost[key] = p.ghostLL.PushFront(key)
	for p.ghostLL.Len() > pageGhostEntries {
		el := p.ghostLL.Back()
		p.ghostLL.Remove(el)
		delete(p.ghost, el.Value.(string))
	}
	return false
}

// Bytes reports the current budget usage (0 on nil).
func (p *PageCache) Bytes() int64 {
	if p == nil {
		return 0
	}
	return p.lru.bytes()
}

// Entries reports the cached chunk count (0 on nil).
func (p *PageCache) Entries() int {
	if p == nil {
		return 0
	}
	return p.lru.entries()
}

func (p *PageCache) hit() {
	p.hits.Inc()
	p.nHits.Add(1)
	updateRatio(p.hitRatio, &p.nHits, &p.nMisses)
}

func (p *PageCache) miss() {
	p.misses.Inc()
	p.nMisses.Add(1)
	updateRatio(p.hitRatio, &p.nHits, &p.nMisses)
}

func updateRatio(g *telemetry.Gauge, hits, misses *atomic.Int64) {
	h, m := hits.Load(), misses.Load()
	if h+m > 0 {
		g.Set(h * 100 / (h + m))
	}
}

// Storage bundles the two storage-node cache levels. A nil *Storage (or
// a nil level inside one) behaves exactly like the uncached system.
type Storage struct {
	footer *FooterCache
	pages  *PageCache
}

// NewStorage builds the storage-node cache bundle; a zero or negative
// budget disables that level.
func NewStorage(footerBytes, pageBytes int64) *Storage {
	return &Storage{footer: NewFooterCache(footerBytes), pages: NewPageCache(pageBytes)}
}

// Footer returns the footer level (nil on a nil bundle).
func (s *Storage) Footer() *FooterCache {
	if s == nil {
		return nil
	}
	return s.footer
}

// Pages returns the hot-page level (nil on a nil bundle).
func (s *Storage) Pages() *PageCache {
	if s == nil {
		return nil
	}
	return s.pages
}

// Instrument binds both levels' telemetry instruments; call before the
// node serves queries.
func (s *Storage) Instrument(reg *telemetry.Registry, labels ...string) {
	if s == nil {
		return
	}
	s.footer.Instrument(reg, labels...)
	s.pages.Instrument(reg, labels...)
}

// Flush empties both levels and the admission ghost list; lifetime
// hit/miss counters are preserved. The harness flushes node caches
// before each measured experiment cell so paper-figure reproductions
// keep their cold-scan semantics.
func (s *Storage) Flush() {
	if s == nil {
		return
	}
	if s.footer != nil {
		s.footer.lru.purge()
		s.footer.bytesG.Set(0)
	}
	if s.pages != nil {
		s.pages.lru.purge()
		s.pages.ghostMu.Lock()
		s.pages.ghost = make(map[string]*list.Element)
		s.pages.ghostLL.Init()
		s.pages.ghostMu.Unlock()
		s.pages.bytesG.Set(0)
	}
}

// InvalidateObject drops every cached footer and page of every version
// of one object. Version-embedded keys already guarantee a re-put object
// never hits stale entries; invalidation just releases the budget early
// instead of waiting for LRU aging.
func (s *Storage) InvalidateObject(bucket, object string) {
	if s == nil {
		return
	}
	prefix := objectPrefix(bucket, object)
	if s.footer != nil {
		s.footer.lru.invalidatePrefix(prefix)
		s.footer.bytesG.Set(s.footer.lru.bytes())
	}
	if s.pages != nil {
		s.pages.lru.invalidatePrefix(prefix)
		s.pages.bytesG.Set(s.pages.lru.bytes())
	}
}

// MetricNames lists every metric name the cache tier registers. The
// manifest test asserts each is declared in telemetry/names.go, keeping
// /metrics discoverable.
func MetricNames() []string {
	return []string{
		telemetry.MetricFooterCacheHits,
		telemetry.MetricFooterCacheMisses,
		telemetry.MetricFooterCacheEvictions,
		telemetry.MetricFooterCacheBytes,
		telemetry.MetricFooterCacheHitRatio,
		telemetry.MetricPageCacheHits,
		telemetry.MetricPageCacheMisses,
		telemetry.MetricPageCacheEvictions,
		telemetry.MetricPageCacheBytes,
		telemetry.MetricPageCacheHitRatio,
		telemetry.MetricPageCacheRejected,
	}
}
