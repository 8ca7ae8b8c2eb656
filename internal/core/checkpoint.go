// Checkpointed truncation: bounding an Incremental checker's state by
// collapsing a stable prefix into its set of reachable final states.
//
// Opacity is prefix-closed in the monitoring view (every observed prefix
// must be opaque), and that is what makes truncation sound. Call the
// history appended so far P and suppose P is *stable*: every transaction
// of P has completed (committed or aborted). Any transaction T appearing
// later starts after every transaction of P has completed, so the
// real-time order ≺ of the full history P·L forces all of P before all
// of L in every serialization. A serialization of P·L therefore
// decomposes into a legal serialization of P followed by a legal
// serialization of L starting from the object states the P-part
// produced — and conversely. So for judging any extension L, all that
// matters about P is the set
//
//	Reach(P) = { final object states of S : S a legal serialization of P }
//
// one state per symmetry class (swapping interchangeable transactions
// cannot change the final state, so class-sorted representatives
// suffice). TryTruncate enumerates Reach(P), interns
// each member, and restarts the history behind the checkpoint; from then
// on P·L is opaque iff L serializes from at least one member, which is
// exactly what Incremental.check decides. Checkpoints compose: a later
// truncation enumerates from every current root and unions the results.
package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"otm/internal/history"
	"otm/internal/spec"
)

const (
	// defaultTruncNodes bounds one truncation attempt's enumeration. A
	// blown budget is not an error — the attempt is abandoned and the
	// session keeps checking untruncated — so the default errs small:
	// truncation is only worthwhile when the stable prefix is cheap to
	// collapse.
	defaultTruncNodes = 1 << 17
	// maxCheckpointRoots caps the reachable-state set a checkpoint may
	// carry. Every root multiplies the worst-case cost of later prefix
	// checks, so a prefix whose serializations reach more distinct
	// states than this is not worth collapsing.
	maxCheckpointRoots = 64
)

// LiveLen returns the length of the live suffix: the events appended
// since the last checkpoint (all events, while no checkpoint exists).
func (inc *Incremental) LiveLen() int { return inc.app.Len() }

// Stable reports whether the live suffix is a stable prefix: every
// transaction in it has completed, so the real-time order forces it
// before everything that can still arrive, and TryTruncate may collapse
// it. An empty suffix is vacuously stable (and not worth truncating).
func (inc *Incremental) Stable() bool { return inc.app.Open() == 0 }

// Roots returns the current checkpoint's reachable final states as
// initial-object maps, or nil while no checkpoint exists. The slice and
// maps are shared; treat them as read-only.
func (inc *Incremental) Roots() []spec.Objects { return inc.roots }

// TryTruncate attempts to collapse the live suffix behind a checkpoint:
// if the suffix is stable (every transaction completed — see Stable) and
// its reachable final states can be enumerated within maxNodes nodes
// (0 = default 131072) without exceeding the root cap, the suffix is
// replaced by its Reach set and the history restarts empty behind the
// checkpoint. Later appends are then judged in O(live-suffix) work
// regardless of how many events the session has absorbed.
//
// On a checker that created its own context (no Config.Context), a
// successful truncation also retires the context's table generation, so
// the tables, like the history, hold only what the live suffix needs.
//
// The return value reports whether truncation happened. Declining is
// never an error: an unstable suffix, a blown enumeration budget or a
// too-diverse Reach set simply leave the checker untruncated, to try
// again at a later quiescent point. Truncation is unavailable (always
// false) on the DisableMemo reference path, after a violation (the
// offending suffix is retained for diagnosis), and after a latched
// error. An error return means the checker state is inconsistent and is
// latched like any checking error.
func (inc *Incremental) TryTruncate(maxNodes int) (bool, error) {
	if inc.err != nil || !inc.res.Opaque || inc.cfg.DisableMemo || inc.ctx == nil {
		return false, nil
	}
	n := inc.app.Len()
	if n == 0 || !inc.Stable() {
		return false, nil
	}
	if maxNodes <= 0 {
		maxNodes = defaultTruncNodes
	}

	// Enumerate Reach(suffix) from every current root. Final vectors are
	// materialized to durable Objects immediately after each per-root
	// walk — before the next walk's setup, which may swap out the table
	// generation the stateIDs point into — and deduplicated by a
	// context-independent rendering of their states.
	var (
		nodes    int
		newRoots []spec.Objects
		seen     = map[string]struct{}{}
	)
	s := acquire(inc.ctx)
	defer s.release()
	for ri := range inc.rootCount() {
		var finals []stateID
		dedup := map[stateID]struct{}{}
		inc.live.root = ri
		// Stability means no live or commit-pending transaction remains,
		// so every transaction's fate is fixed by its status.
		err := s.enumerateFinals(serializeOptions{
			live:     &inc.live,
			objects:  inc.rootAt(ri),
			maxNodes: maxNodes,
			nodes:    &nodes,
		}, func(vid stateID) {
			if _, ok := dedup[vid]; !ok {
				dedup[vid] = struct{}{}
				finals = append(finals, vid)
			}
		})
		if err != nil {
			// Budget exhausted: abandon the attempt, keep checking
			// untruncated.
			inc.res.TruncNodes += nodes
			return false, nil
		}
		for _, vid := range finals {
			objs := mergedRoot(inc.rootAt(ri), inc.ctx.materialize(vid))
			key := rootKey(objs)
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			newRoots = append(newRoots, objs)
			if len(newRoots) > maxCheckpointRoots {
				inc.res.TruncNodes += nodes
				return false, nil
			}
		}
	}
	inc.res.TruncNodes += nodes
	if len(newRoots) == 0 {
		// The suffix was verified opaque, so at least one root must admit
		// at least one serialization: an empty Reach set is a checker bug
		// and continuing from it would declare everything a violation.
		inc.err = fmt.Errorf("core: truncation found no reachable state for an opaque prefix of %d events", n)
		return false, inc.err
	}

	if err := inc.app.Truncate(n); err != nil {
		inc.err = fmt.Errorf("core: truncating %d stable events: %w", n, err)
		return false, inc.err
	}
	inc.roots = newRoots
	inc.rootPref = 0
	inc.hint = nil
	inc.live.reset()
	if inc.ownCtx {
		// Nothing the checker keeps now names a table entry: the live
		// suffix is empty and the roots are durable Objects maps. What
		// the tables hold is every state, signature and transition the
		// checks since the last checkpoint interned, so a fresh
		// generation bounds them by the live suffix, not the session's
		// age.
		// The live suffix syncs to the fresh generation now rather than
		// at the next check, so nothing keeps the retired one reachable.
		inc.ctx.rotate()
		inc.live.sync(inc.ctx)
	}
	inc.res.Checkpoints++
	inc.res.TruncatedEvents += n
	inc.res.Roots = len(newRoots)
	return true, nil
}

// mergedRoot overlays a materialized reachable state on root, the
// initial objects the enumeration walk started from: objects the
// context has registered take their state from the checkpoint, every
// other object keeps its state from root. Registered are exactly the
// objects the generation has seen, so the others are objects the
// suffix did not touch: configured objects the history has not used
// yet, whose state in the first root is their configured initial state
// (or the default register), and objects a generation swap dropped
// from the registry, whose state an earlier checkpoint fixed. The merge
// is what keeps every later event judged against the states an
// untruncated check would use.
func mergedRoot(root, reached spec.Objects) spec.Objects {
	if len(root) == 0 {
		return reached
	}
	out := make(spec.Objects, len(root)+len(reached))
	for id, st := range root {
		out[id] = st
	}
	for id, st := range reached {
		out[id] = st
	}
	return out
}

// rootKey renders an Objects map deterministically — object ids sorted,
// each state by its spec Key, every field length-framed — so equal root
// states deduplicate across enumeration walks regardless of which
// context tables interned them.
func rootKey(objs spec.Objects) string {
	ids := make([]string, 0, len(objs))
	for id := range objs {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	var buf []byte
	for _, id := range ids {
		key := objs[history.ObjID(id)].Key()
		buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(id))), id...)
		buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(key))), key...)
	}
	return string(buf)
}

// Diagnose explains the checker's latched violation in terms of the live
// suffix: which transactions' removal (alone) restores opacity. It is
// the checkpoint-aware counterpart of the package-level Diagnose — the
// offending prefix of a truncated session no longer exists in full, so
// the re-checks run on the retained suffix from the checkpoint roots
// (removal of a suffix transaction leaves the collapsed prefix, and with
// it the Reach set, untouched). The PrefixLen and Culprit of the
// returned Diagnosis are the checker's own: the global event position of
// the violation and the event that introduced it. Events appended after
// the violation play no part: the re-checks run on the live prefix that
// ends at it. Diagnose returns an error if no violation has been
// observed.
func (inc *Incremental) Diagnose() (Diagnosis, error) {
	if inc.res.Opaque {
		return Diagnosis{}, fmt.Errorf("core: Diagnose on a checker with no violation")
	}
	// TryTruncate declines once a violation latched, so the violating
	// event is still in the live suffix, TruncatedEvents before its
	// global position.
	live := inc.app.History()[:inc.res.PrefixLen-inc.res.TruncatedEvents]
	d := Diagnosis{PrefixLen: inc.res.PrefixLen, Culprit: live[len(live)-1]}
	err := d.implicate(live, inc.opaqueFromRoots)
	return d, err
}

// opaqueFromRoots decides whether h is opaque as an extension of the
// current checkpoint: serializable from at least one root.
func (inc *Incremental) opaqueFromRoots(h history.History) (bool, int, error) {
	nodes := 0
	for ri := range inc.rootCount() {
		r, err := Check(h, Config{
			Objects:     inc.rootAt(ri),
			MaxNodes:    inc.cfg.MaxNodes,
			Context:     inc.ctx,
			DisableMemo: inc.cfg.DisableMemo,
			DisableSym:  inc.cfg.DisableSym,
		})
		nodes += r.Nodes
		if err != nil {
			return false, nodes, err
		}
		if r.Opaque {
			return true, nodes, nil
		}
	}
	return false, nodes, nil
}
