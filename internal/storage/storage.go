// Package storage abstracts where corpora, verdict logs and
// coordination state live. One small FS interface — Open, Create, List,
// Stat, Remove over slash-separated names — is implemented by multiple
// backends resolved from URIs: `file://` (or a bare path) maps onto a
// directory of the local filesystem, `mem://` onto a named in-process
// store shared by everything in the same process (tests, `otmd run`).
// Every backend must pass the shared conformance suite in
// storage/testsuite.
//
// Writes are atomic: Create returns a Writer whose bytes are invisible
// to Open/List/Stat until Close commits them in one step (the os backend
// writes a hidden temp file and renames it into place; fsync before the
// rename makes a committed object durable). A crash — or an explicit
// Abort — between Create and Close leaves no partial object behind.
// This commit-on-close contract is what makes the distributed checker's
// manifests, checkpoints and per-shard verdict logs safe to reload after
// a kill: an object either exists with its full content or not at all.
package storage

import (
	"fmt"
	"io"
	"io/fs"
	"path"
	"strings"
)

// ErrNotExist reports that a named object does not exist. Backends wrap
// it (or an error satisfying errors.Is(err, ErrNotExist), like the os
// package's) so callers test with errors.Is.
var ErrNotExist = fs.ErrNotExist

// Info describes a committed object.
type Info struct {
	// Name is the object's name within its FS.
	Name string
	// Size is the committed content length in bytes.
	Size int64
}

// Writer is an in-flight object created by FS.Create. Bytes written are
// not observable through Open, List or Stat until Close commits them
// atomically. Abort discards the object instead; aborting after a
// successful Close is a no-op. Exactly one of Close or Abort should
// decide the object's fate, and a Writer is not safe for concurrent use.
type Writer interface {
	io.Writer
	// Close commits the written bytes as the object's full content,
	// replacing any previous version in one atomic step.
	Close() error
	// Abort discards the written bytes, leaving any previous version of
	// the object untouched.
	Abort() error
}

// FS is one storage location: a flat namespace of slash-separated
// object names (e.g. "shards/0007.in"). Implementations are safe for
// concurrent use by multiple goroutines.
type FS interface {
	// Open returns the committed content of name.
	Open(name string) (io.ReadCloser, error)
	// Create starts a new version of name; see Writer.
	Create(name string) (Writer, error)
	// List returns the names of all committed objects with the given
	// name prefix, sorted. A "" prefix lists everything.
	List(prefix string) ([]string, error)
	// Stat describes a committed object.
	Stat(name string) (Info, error)
	// Remove deletes a committed object.
	Remove(name string) error
}

// cleanName validates an object name: nonempty, slash-separated,
// relative, no "." or ".." segments, no empty segments. It returns the
// name unchanged so call sites read as a checked pass-through.
func cleanName(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("storage: empty object name")
	}
	if strings.HasPrefix(name, "/") || strings.HasSuffix(name, "/") {
		return "", fmt.Errorf("storage: object name %q must be relative with no trailing slash", name)
	}
	for _, seg := range strings.Split(name, "/") {
		switch seg {
		case "", ".", "..":
			return "", fmt.Errorf("storage: object name %q has a %q segment", name, seg)
		}
	}
	return name, nil
}

// Resolve maps a location URI onto a backend FS rooted at the URI's
// path:
//
//	file:///var/run/otmd     → local directory /var/run/otmd
//	file://rel/dir           → local directory rel/dir
//	mem://bucket/sub         → named in-process store "bucket", under sub/
//	/var/run/otmd (no scheme)→ local directory, same as file://
//
// The mem scheme names process-wide stores: every Resolve of the same
// store name in the same process sees the same objects, which is what
// lets an in-process coordinator and its workers (or a test) share state
// without touching disk. It does not cross process boundaries — separate
// worker processes need file:// (or another durable backend).
func Resolve(uri string) (FS, error) {
	scheme, rest, ok := strings.Cut(uri, "://")
	if !ok {
		if uri == "" {
			return nil, fmt.Errorf("storage: empty location")
		}
		return NewOS(uri), nil
	}
	switch scheme {
	case "file":
		if rest == "" {
			return nil, fmt.Errorf("storage: file:// URI needs a path (in %q)", uri)
		}
		return NewOS(rest), nil
	case "mem":
		store, sub, _ := strings.Cut(rest, "/")
		if store == "" {
			return nil, fmt.Errorf("storage: mem:// URI needs a store name (in %q)", uri)
		}
		fsys := Mem(store)
		if sub != "" {
			return Sub(fsys, sub), nil
		}
		return fsys, nil
	}
	return nil, fmt.Errorf("storage: unknown scheme %q in %q (known: file, mem)", scheme, uri)
}

// SplitURI splits a URI naming a single object into the URI of its
// enclosing location and the object's base name, for OpenURI/CreateURI:
//
//	file:///tmp/run/corpus.txt → ("file:///tmp/run", "corpus.txt")
//	mem://b/logs/x.log         → ("mem://b/logs", "x.log")
//	corpus.txt                 → (".", "corpus.txt")
func SplitURI(uri string) (dir, base string, err error) {
	scheme, rest, hasScheme := strings.Cut(uri, "://")
	if !hasScheme {
		scheme, rest = "", uri
	}
	i := strings.LastIndex(rest, "/")
	if i < 0 {
		dir, base = ".", rest
		if hasScheme && scheme == "mem" {
			return "", "", fmt.Errorf("storage: mem URI %q names a store, not an object", uri)
		}
		if hasScheme {
			return "", "", fmt.Errorf("storage: URI %q has no object component", uri)
		}
	} else {
		dir, base = rest[:i], rest[i+1:]
		if dir == "" {
			dir = "/"
		}
		if hasScheme {
			dir = scheme + "://" + dir
		}
	}
	if base == "" {
		return "", "", fmt.Errorf("storage: URI %q has an empty object name", uri)
	}
	return dir, base, nil
}

// OpenURI opens the single object named by uri (a location URI plus a
// base name, or a plain file path).
func OpenURI(uri string) (io.ReadCloser, error) {
	dir, base, err := SplitURI(uri)
	if err != nil {
		return nil, err
	}
	fsys, err := Resolve(dir)
	if err != nil {
		return nil, err
	}
	return fsys.Open(base)
}

// CreateURI starts an atomic write of the single object named by uri.
func CreateURI(uri string) (Writer, error) {
	dir, base, err := SplitURI(uri)
	if err != nil {
		return nil, err
	}
	fsys, err := Resolve(dir)
	if err != nil {
		return nil, err
	}
	return fsys.Create(base)
}

// Sub returns fsys restricted to the objects under dir/: names passed to
// the returned FS are prefixed with dir+"/", and List results have the
// prefix stripped, so a Sub FS satisfies the same conformance suite as
// its parent.
func Sub(fsys FS, dir string) FS {
	dir = strings.Trim(path.Clean(dir), "/")
	return &subFS{fsys: fsys, prefix: dir + "/"}
}

type subFS struct {
	fsys   FS
	prefix string
}

func (s *subFS) full(name string) (string, error) {
	if _, err := cleanName(name); err != nil {
		return "", err
	}
	return s.prefix + name, nil
}

func (s *subFS) Open(name string) (io.ReadCloser, error) {
	full, err := s.full(name)
	if err != nil {
		return nil, err
	}
	return s.fsys.Open(full)
}

func (s *subFS) Create(name string) (Writer, error) {
	full, err := s.full(name)
	if err != nil {
		return nil, err
	}
	return s.fsys.Create(full)
}

func (s *subFS) List(prefix string) ([]string, error) {
	names, err := s.fsys.List(s.prefix + prefix)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, strings.TrimPrefix(n, s.prefix))
	}
	return out, nil
}

func (s *subFS) Stat(name string) (Info, error) {
	full, err := s.full(name)
	if err != nil {
		return Info{}, err
	}
	info, err := s.fsys.Stat(full)
	if err != nil {
		return Info{}, err
	}
	info.Name = name
	return info, nil
}

func (s *subFS) Remove(name string) error {
	full, err := s.full(name)
	if err != nil {
		return err
	}
	return s.fsys.Remove(full)
}
