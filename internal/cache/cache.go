// Package cache implements the per-node prefix cache of the SPIFFI
// caching tier (CACHING.md, ROADMAP item 3). Each server node keeps the
// first PrefixBlocks blocks of popular videos resident in a memory
// budget carved out of that node's buffer pool, so a new viewer's
// opening blocks are served from memory and the viewer can merge onto
// an in-flight disk stream instead of opening its own (core/merge.go).
//
// Replacement is pluggable per experiment. PolicyLRU evicts the least
// recently touched cached block. PolicyZipfRank follows the rank-based
// replacement policy for Zipf-like video popularity: the victim is
// always taken from the video with the lowest observed request count
// (the worst popularity rank), and within that video the deepest cached
// block goes first, so prefixes shrink from the tail and the contiguous
// head — the part merge-joins depend on — survives longest.
//
// Everything is deterministic: eviction scans run in fixed video-id
// order, ties break toward the higher video id, and no map is ever
// iterated to make a decision. The cache draws no randomness and arms
// no timers, so a disabled cache (zero Config) cannot perturb a run.
package cache

import (
	"fmt"

	"spiffi/internal/trace"
)

// PolicyKind selects the replacement policy.
type PolicyKind string

const (
	// PolicyLRU evicts the least recently touched cached block.
	PolicyLRU PolicyKind = "lru"
	// PolicyZipfRank evicts from the least-requested video first,
	// deepest block first within it.
	PolicyZipfRank PolicyKind = "zipf-rank"
)

// Config configures the caching tier. The zero value disables it
// entirely: no cache objects are built, the buffer pool keeps its full
// size, and runs reproduce cache-less builds bit for bit.
type Config struct {
	// BudgetBytes is the aggregate cache memory across all nodes,
	// carved out of ServerMemBytes (each node gets BudgetBytes/Nodes,
	// and the buffer pool shrinks by the same amount). 0 disables the
	// cache.
	BudgetBytes int64

	// Policy selects the replacement policy; Normalize fills PolicyLRU
	// when the cache is enabled and no policy is named.
	Policy PolicyKind

	// PrefixBlocks is K, the number of leading blocks per video the
	// cache may hold; Normalize fills 8 when the cache is enabled.
	PrefixBlocks int

	// DecayEvery halves every video's observed request count after each
	// DecayEvery lookups (0 = never, the historical behavior). Without
	// decay PolicyZipfRank ranks by lifetime counts, so a formerly-hot
	// video outranks the current hits long after its popularity
	// collapses; with decay the ranking follows a sliding window of
	// roughly 2*DecayEvery recent requests. Deterministic and
	// timer-free: the trigger is the lookup counter itself.
	DecayEvery int64
}

// Enabled reports whether the caching tier is configured on.
func (c Config) Enabled() bool { return c.BudgetBytes > 0 }

// Normalize fills defaults for an enabled cache and leaves a disabled
// one untouched (zero stays zero).
func (c Config) Normalize() Config {
	if !c.Enabled() {
		return c
	}
	if c.Policy == "" {
		c.Policy = PolicyLRU
	}
	if c.PrefixBlocks == 0 {
		c.PrefixBlocks = 8
	}
	return c
}

// Validate reports configuration errors; a disabled cache is always
// valid.
func (c Config) Validate() error {
	if !c.Enabled() {
		if c.BudgetBytes < 0 {
			return fmt.Errorf("cache: negative budget %d", c.BudgetBytes)
		}
		return nil
	}
	switch c.Policy {
	case PolicyLRU, PolicyZipfRank:
	default:
		return fmt.Errorf("cache: unknown policy %q (want %q or %q)", c.Policy, PolicyLRU, PolicyZipfRank)
	}
	if c.PrefixBlocks < 1 {
		return fmt.Errorf("cache: need PrefixBlocks >= 1, got %d", c.PrefixBlocks)
	}
	if c.DecayEvery < 0 {
		return fmt.Errorf("cache: negative DecayEvery %d", c.DecayEvery)
	}
	return nil
}

// Stats counts cache activity over a run's whole lifetime. Metrics
// reports them lifetime, not over the measurement window: hit ratios are
// a property of the cache, not of a window.
type Stats struct {
	Hits      int64 // prefix-block requests served from cache
	Misses    int64 // prefix-block requests the cache could not serve
	Inserts   int64 // blocks admitted into the cache
	Evictions int64 // blocks evicted to make room
}

// entry is one cached block. Entries live simultaneously on the global
// LRU list (prev/next) and in their video's per-video block table.
type entry struct {
	video, block int
	size         int64
	prev, next   *entry
}

// perVideo tracks one video's cached blocks and its observed request
// count (the popularity signal PolicyZipfRank ranks by).
type perVideo struct {
	blocks   map[int]*entry
	requests int64
	// deepest is the largest cached block index, maintained so the
	// zipf-rank victim scan never iterates a map.
	deepest int
}

// Cache is one node's prefix cache. It is not safe for concurrent use;
// the simulation kernel runs one process at a time, which is the only
// caller.
type Cache struct {
	budget       int64
	used         int64
	prefixBlocks int
	policy       PolicyKind
	decayEvery   int64
	lookups      int64 // lookups since the last popularity decay

	videos []perVideo // indexed by video id

	// lru is a doubly linked list of entries, most recent at head.
	head, tail *entry

	stats Stats

	rec  *trace.Recorder
	node int
}

// New builds a node's cache with the given per-node byte budget. The
// cfg must be normalized and valid; nVideos sizes the per-video table.
func New(cfg Config, budgetBytes int64, nVideos int) *Cache {
	c := &Cache{
		budget:       budgetBytes,
		prefixBlocks: cfg.PrefixBlocks,
		policy:       cfg.Policy,
		decayEvery:   cfg.DecayEvery,
		videos:       make([]perVideo, nVideos),
	}
	for v := range c.videos {
		c.videos[v].blocks = make(map[int]*entry)
		c.videos[v].deepest = -1
	}
	return c
}

// SetTrace attaches a recorder; node identifies this cache in events.
func (c *Cache) SetTrace(rec *trace.Recorder, node int) {
	c.rec = rec
	c.node = node
}

// Stats returns lifetime counters.
func (c *Cache) Stats() Stats { return c.stats }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.used }

// Cacheable reports whether a block is within the prefix window the
// cache manages.
func (c *Cache) Cacheable(block int) bool { return block < c.prefixBlocks }

// Contains reports whether the block is resident, without touching
// recency or popularity state.
func (c *Cache) Contains(video, block int) bool {
	if video < 0 || video >= len(c.videos) {
		return false
	}
	_, ok := c.videos[video].blocks[block]
	return ok
}

// Lookup serves a block request. Every call counts toward the video's
// popularity rank (the cache observes the full request stream); hit and
// miss statistics are kept only for cacheable (prefix) blocks, since
// deeper blocks are never the cache's to serve. A hit refreshes LRU
// recency and is traced.
func (c *Cache) Lookup(video, block int) bool {
	if video < 0 || video >= len(c.videos) {
		return false
	}
	c.videos[video].requests++
	if c.decayEvery > 0 {
		if c.lookups++; c.lookups >= c.decayEvery {
			c.lookups = 0
			for v := range c.videos {
				c.videos[v].requests /= 2
			}
		}
	}
	if !c.Cacheable(block) {
		return false
	}
	e, ok := c.videos[video].blocks[block]
	if !ok {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.touch(e)
	c.rec.CacheHit(c.node, video, block)
	return true
}

// Insert admits a block after a disk fetch, evicting until it fits.
// Non-prefix blocks, duplicates, and blocks larger than the whole
// budget are ignored.
func (c *Cache) Insert(video, block int, size int64) {
	if video < 0 || video >= len(c.videos) || !c.Cacheable(block) || size <= 0 || size > c.budget {
		return
	}
	pv := &c.videos[video]
	if _, ok := pv.blocks[block]; ok {
		return
	}
	for c.used+size > c.budget {
		if !c.evictOne() {
			return
		}
	}
	e := &entry{video: video, block: block, size: size}
	pv.blocks[block] = e
	if block > pv.deepest {
		pv.deepest = block
	}
	c.pushFront(e)
	c.used += size
	c.stats.Inserts++
	c.rec.CacheInsert(c.node, video, block)
}

// evictOne removes one victim according to the policy; it reports false
// if the cache is already empty.
func (c *Cache) evictOne() bool {
	var victim *entry
	switch c.policy {
	case PolicyZipfRank:
		victim = c.zipfRankVictim()
	default:
		victim = c.tail
	}
	if victim == nil {
		return false
	}
	c.remove(victim)
	c.stats.Evictions++
	c.rec.CacheEvict(c.node, victim.video, victim.block)
	return true
}

// zipfRankVictim picks the deepest cached block of the video with the
// fewest observed requests. The scan is a fixed-order pass over the
// video table (no map iteration); ties on request count resolve to the
// higher video id, so repeated evictions under identical counts drain
// one video at a time instead of interleaving.
func (c *Cache) zipfRankVictim() *entry {
	worst := -1
	for v := range c.videos {
		if len(c.videos[v].blocks) == 0 {
			continue
		}
		if worst < 0 || c.videos[v].requests <= c.videos[worst].requests {
			worst = v
		}
	}
	if worst < 0 {
		return nil
	}
	return c.videos[worst].blocks[c.videos[worst].deepest]
}

// remove unlinks an entry from the LRU list and its video table and
// releases its bytes.
func (c *Cache) remove(e *entry) {
	c.unlink(e)
	pv := &c.videos[e.video]
	delete(pv.blocks, e.block)
	if e.block == pv.deepest {
		pv.deepest = -1
		for b := e.block - 1; b >= 0; b-- {
			if _, ok := pv.blocks[b]; ok {
				pv.deepest = b
				break
			}
		}
	}
	c.used -= e.size
}

func (c *Cache) touch(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
