package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"otm/internal/checkpool"
	"otm/internal/gen"
	"otm/internal/storage"
)

// Store layout. Everything is committed atomically (storage.Writer), so
// each object either exists in full or not at all:
//
//	manifest.json    — the run's shard plan; committing it is the point
//	                   of no return for planning
//	shards/00007.in  — raw corpus line slice of shard 7 (file corpora)
//	logs/00007-<lease>.log — verdict lines of one completed attempt
//	done/00007.json  — DoneRecord: shard 7 is verdicted, which log holds
//	                   its lines; the set of done markers IS the
//	                   checkpoint
const (
	manifestName  = "manifest.json"
	shardInputFmt = "shards/%05d.in"
	shardLogFmt   = "logs/%05d-%s.log"
	doneFmt       = "done/%05d.json"
	donePrefix    = "done/"
)

// ErrNoManifest reports a store with no committed manifest: nothing to
// resume.
var ErrNoManifest = errors.New("dist: store has no manifest")

// GenSpec describes a generator-defined corpus (cmd/histgen's
// parameters): workers regenerate their shard's slice from the seed
// instead of reading shard inputs from the store, so distributed runs of
// generated corpora ship no corpus bytes at all.
type GenSpec struct {
	// N is the corpus size; history j (0 ≤ j < N) uses seed Seed+j.
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
	// Txs, Objs, MaxOps, PStaleRead, WithInit mirror gen.Config.
	Txs        int     `json:"txs,omitempty"`
	Objs       int     `json:"objs,omitempty"`
	MaxOps     int     `json:"max_ops,omitempty"`
	PStaleRead float64 `json:"p_stale_read,omitempty"`
	WithInit   bool    `json:"with_init,omitempty"`
}

// Config translates the spec to the generator's configuration.
func (g GenSpec) Config() gen.Config {
	return gen.Config{
		Txs: g.Txs, Objs: g.Objs, MaxOps: g.MaxOps,
		PStaleRead: g.PStaleRead, WithInit: g.WithInit,
	}
}

// ShardSpec is one unit of leased work. File-backed shards carry a
// store input object and the global line numbering to label verdicts
// with; generator-backed shards carry the half-open history-index range
// to regenerate.
type ShardSpec struct {
	Index int `json:"index"`
	// Input is the store object holding this shard's raw corpus lines
	// (file corpora only).
	Input string `json:"input,omitempty"`
	// StartLine is the 1-based line number of Input's first line in the
	// original corpus; verdict sources are "label:StartLine+offset".
	StartLine int `json:"start_line,omitempty"`
	// Lines is the raw line count of Input (blank and comment lines
	// included; they yield no verdicts, matching opacheck).
	Lines int `json:"lines,omitempty"`
	// Lo and Hi delimit the generator index range [Lo, Hi) (generator
	// corpora only).
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
}

// Manifest is the durable shard plan of one run. It is written once by
// Plan and never modified; progress lives in the done markers.
type Manifest struct {
	// Run identifies the plan (for log lines and sanity checks).
	Run string `json:"run"`
	// Label prefixes verdict sources; for file corpora it defaults to
	// the corpus path as given, so distributed verdict lines match a
	// single-process `opacheck -parallel <path>` run byte for byte.
	Label string `json:"label"`
	// Gen is set for generator-defined corpora.
	Gen *GenSpec `json:"gen,omitempty"`
	// CounterObjs and MaxNodes are the checker configuration every
	// worker applies (opacheck's -counter / -maxnodes).
	CounterObjs string      `json:"counter_objs,omitempty"`
	MaxNodes    int         `json:"max_nodes,omitempty"`
	Shards      []ShardSpec `json:"shards"`
}

// PlanOptions configures Plan.
type PlanOptions struct {
	// CorpusURI names the corpus file to shard (a storage URI or plain
	// path). Exactly one of CorpusURI and Gen must be set.
	CorpusURI string
	// Label overrides the verdict source prefix (default: CorpusURI for
	// file corpora, "gen" for generator corpora).
	Label string
	// Gen defines a generator corpus instead of a file.
	Gen *GenSpec
	// ShardSize is the number of corpus lines (file) or histories
	// (generator) per shard; default 256.
	ShardSize int
	// CounterObjs and MaxNodes are recorded in the manifest for workers.
	// MaxNodes must not be negative; 0 means the checker default.
	CounterObjs string
	MaxNodes    int
	// RunID names the plan; default "run".
	RunID string
}

// Plan shards a corpus into store and commits the manifest. For file
// corpora the corpus is split into contiguous raw line slices written as
// shard inputs — workers never need the original file, only the store.
// Planning is not idempotent: if store already holds a manifest, Plan
// refuses, and the caller should resume with LoadManifest instead.
func Plan(store storage.FS, opts PlanOptions) (*Manifest, error) {
	if _, err := store.Stat(manifestName); err == nil {
		return nil, fmt.Errorf("dist: store already has a manifest; resume instead of re-planning")
	} else if !errors.Is(err, storage.ErrNotExist) {
		return nil, err
	}
	if (opts.CorpusURI == "") == (opts.Gen == nil) {
		return nil, fmt.Errorf("dist: exactly one of CorpusURI and Gen must be set")
	}
	if opts.MaxNodes < 0 {
		return nil, fmt.Errorf("dist: MaxNodes %d: the budget must be 0 (the checker default) or positive", opts.MaxNodes)
	}
	if opts.ShardSize < 1 {
		opts.ShardSize = 256
	}
	if opts.RunID == "" {
		opts.RunID = "run"
	}

	man := &Manifest{
		Run:         opts.RunID,
		Label:       opts.Label,
		Gen:         opts.Gen,
		CounterObjs: opts.CounterObjs,
		MaxNodes:    opts.MaxNodes,
	}
	if opts.Gen != nil {
		if man.Label == "" {
			man.Label = "gen"
		}
		if opts.Gen.N < 1 {
			return nil, fmt.Errorf("dist: generator corpus needs n ≥ 1")
		}
		k := (opts.Gen.N + opts.ShardSize - 1) / opts.ShardSize
		for i := 0; i < k; i++ {
			lo, hi := gen.ShardRange(opts.Gen.N, i, k)
			man.Shards = append(man.Shards, ShardSpec{Index: i, Lo: lo, Hi: hi})
		}
	} else {
		if man.Label == "" {
			man.Label = opts.CorpusURI
		}
		if err := planFileShards(store, man, opts); err != nil {
			return nil, err
		}
	}

	if err := writeJSON(store, manifestName, man); err != nil {
		return nil, err
	}
	return man, nil
}

// planFileShards streams the corpus once, writing every ShardSize raw
// lines as one committed shard input.
func planFileShards(store storage.FS, man *Manifest, opts PlanOptions) error {
	r, err := storage.OpenURI(opts.CorpusURI)
	if err != nil {
		return fmt.Errorf("dist: corpus: %w", err)
	}
	defer r.Close()

	br := bufio.NewReader(r)
	var (
		w         storage.Writer
		input     string
		startLine = 1
		lines     = 0
		lineno    = 0
	)
	flush := func() error {
		if w == nil {
			return nil
		}
		if err := w.Close(); err != nil {
			return err
		}
		man.Shards = append(man.Shards, ShardSpec{
			Index: len(man.Shards), Input: input, StartLine: startLine, Lines: lines,
		})
		w, lines = nil, 0
		return nil
	}
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			lineno++
			if w == nil {
				input = fmt.Sprintf(shardInputFmt, len(man.Shards))
				startLine = lineno
				var err2 error
				if w, err2 = store.Create(input); err2 != nil {
					return err2
				}
			}
			if !strings.HasSuffix(line, "\n") {
				line += "\n"
			}
			if _, err2 := io.WriteString(w, line); err2 != nil {
				w.Abort()
				return err2
			}
			if lines++; lines == opts.ShardSize {
				if err2 := flush(); err2 != nil {
					return err2
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			if w != nil {
				w.Abort()
			}
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if len(man.Shards) == 0 {
		return fmt.Errorf("dist: corpus %s is empty", opts.CorpusURI)
	}
	return nil
}

// LoadManifest reads the committed manifest of store, or ErrNoManifest.
func LoadManifest(store storage.FS) (*Manifest, error) {
	var man Manifest
	if err := readJSON(store, manifestName, &man); err != nil {
		if errors.Is(err, storage.ErrNotExist) {
			return nil, ErrNoManifest
		}
		return nil, err
	}
	return &man, nil
}

// DoneRecord is the checkpoint entry of one completed shard: where its
// verdict log lives and what it contains. Committing the record's done
// marker is the step that makes a shard's verdicts permanent — a crash
// before it leaves the shard pending (it will be re-checked, yielding
// identical bytes); a crash after it means the shard is never re-checked.
type DoneRecord struct {
	Shard int `json:"shard"`
	// Log is the store object holding the shard's verdict lines.
	Log string `json:"log"`
	checkpool.Tally
	Worker string `json:"worker,omitempty"`
}

// Checkpoint is the reloadable progress of a run: the set of done
// shards. It is exactly the store's committed done markers — there is no
// separate progress file to drift out of sync.
type Checkpoint struct {
	done map[int]DoneRecord
}

// LoadCheckpoint rebuilds the checkpoint from store's done markers.
// Markers for shards the manifest does not know are rejected — they mean
// the store holds a different run's state.
func LoadCheckpoint(store storage.FS, man *Manifest) (*Checkpoint, error) {
	names, err := store.List(donePrefix)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{done: make(map[int]DoneRecord, len(names))}
	for _, name := range names {
		var rec DoneRecord
		if err := readJSON(store, name, &rec); err != nil {
			return nil, fmt.Errorf("dist: checkpoint %s: %w", name, err)
		}
		if rec.Shard < 0 || rec.Shard >= len(man.Shards) {
			return nil, fmt.Errorf("dist: checkpoint %s names shard %d outside the manifest's %d shards", name, rec.Shard, len(man.Shards))
		}
		cp.done[rec.Shard] = rec
	}
	return cp, nil
}

// Mark durably records a completed shard, then updates the in-memory
// set. Marking an already-done shard is a no-op (at-least-once dispatch
// can complete a shard twice; the first record wins).
func (c *Checkpoint) Mark(store storage.FS, rec DoneRecord) error {
	if _, dup := c.done[rec.Shard]; dup {
		return nil
	}
	if err := writeJSON(store, fmt.Sprintf(doneFmt, rec.Shard), rec); err != nil {
		return err
	}
	c.done[rec.Shard] = rec
	return nil
}

// Done returns the record of a completed shard.
func (c *Checkpoint) Done(shard int) (DoneRecord, bool) {
	rec, ok := c.done[shard]
	return rec, ok
}

// NumDone returns how many shards have completed.
func (c *Checkpoint) NumDone() int { return len(c.done) }

// Pending returns the manifest's shard indices with no done record, in
// order — the work a resumed coordinator requeues.
func (c *Checkpoint) Pending(man *Manifest) []int {
	var pending []int
	for i := range man.Shards {
		if _, ok := c.done[i]; !ok {
			pending = append(pending, i)
		}
	}
	return pending
}

func writeJSON(store storage.FS, name string, v any) error {
	w, err := store.Create(name)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

func readJSON(store storage.FS, name string, v any) error {
	r, err := store.Open(name)
	if err != nil {
		return err
	}
	defer r.Close()
	return json.NewDecoder(r).Decode(v)
}
