package symx

// Domain: the long-lived shared state a persistent service (cmd/symxd)
// keeps between jobs, and the unit at which that state is reclaimed.
//
// A domain bundles one expression builder, its stable fingerprinter, and
// the ID-keyed counterexample cache — optionally wired to a persistent
// store.Store, in which case the cex cache consults the store's stable
// layer on misses and records completed verdicts into it. Every run
// configured with Config.Domain interns into the same builder and shares
// the cache, so jobs warm each other up in-process while the store carries
// the same knowledge across restarts.
//
// Reclamation follows the spirit of gosmt's ExprBuilder (SNIPPETS.md),
// which frees individual hash-cons buckets with per-entry refcounts and
// runtime finalizers. Node-granular reclamation is unsound here: the engine
// equates expressions by pointer identity, so evicting a node from the
// intern table while any state still references it would let a semantically
// identical node be re-interned at a different address and break canonical
// equality. Instead the refcount/finalizer idiom is applied at domain
// granularity: jobs Acquire/Release the domain they run in, the daemon
// rotates to a fresh domain over the same store once the builder
// grows past a watermark, and the retired domain — builder, intern table,
// cex cache, fingerprint memo, all of it — becomes garbage the moment its
// last job releases it. A runtime finalizer on the retired domain increments a
// global counter when the collector actually reclaims it, which is what the
// leak test (and the daemon's builders_reclaimed expvar) observe: bounded
// growth is a theorem only if rotation demonstrably frees the old tables.

import (
	"runtime"
	"sync/atomic"

	"symmerge/internal/expr"
	"symmerge/internal/solver"
	"symmerge/internal/store"
)

// Domain is the shared builder + cache + (optional) persistent store
// bundle for long-lived multi-run processes. All methods are safe for
// concurrent use; the zero value is not usable — call NewDomain.
type Domain struct {
	build *expr.Builder
	fper  *expr.Fingerprinter
	cex   *solver.Cache
	st    *store.Store

	refs atomic.Int64
}

var domainsReclaimed atomic.Uint64

// NewDomain creates a fresh domain, optionally backed by a persistent
// store (nil is a purely in-memory domain — still useful for sharing one
// builder and cache across the runs of a suite).
func NewDomain(st *store.Store) *Domain {
	d := &Domain{
		build: expr.NewBuilder(),
		fper:  new(expr.Fingerprinter),
		cex:   solver.NewSharedCache(),
		st:    st,
	}
	if st != nil {
		d.cex.AttachStable(st, d.fper)
	}
	// The finalizer must not close over d (that would keep it reachable
	// forever); the parameter form gets the pointer at collection time.
	runtime.SetFinalizer(d, func(*Domain) { domainsReclaimed.Add(1) })
	return d
}

// Acquire marks one job as running in this domain. Pair with Release.
func (d *Domain) Acquire() { d.refs.Add(1) }

// Release undoes one Acquire.
func (d *Domain) Release() { d.refs.Add(-1) }

// Refs reports the number of jobs currently holding the domain — the
// daemon retires a rotated-out domain by simply dropping its pointer once
// this reaches zero.
func (d *Domain) Refs() int64 { return d.refs.Load() }

// NumNodes reports the builder's intern-table size: the rotation
// watermark input.
func (d *Domain) NumNodes() int { return d.build.NumNodes() }

// Store returns the backing store (nil for in-memory domains).
func (d *Domain) Store() *store.Store { return d.st }

// WarmHits reports how many queries (whole queries plus independence
// groups) the domain's runs answered from the persistent store.
func (d *Domain) WarmHits() uint64 {
	if d.st == nil {
		return 0
	}
	return d.st.Stats().LookupHits
}

// Flush writes the verdicts recorded since the last flush to the store. A
// no-op without a store.
func (d *Domain) Flush() error {
	if d.st == nil {
		return nil
	}
	return d.st.Flush()
}

// DomainsReclaimed reports how many retired domains the garbage collector
// has actually reclaimed, process-wide. Monotone; the daemon publishes it
// as builders_reclaimed.
func DomainsReclaimed() uint64 { return domainsReclaimed.Load() }
