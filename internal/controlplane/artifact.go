package controlplane

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"otm/internal/core"
	"otm/internal/history"
	"otm/internal/monitor"
)

// artifactVersion is the first line of every violation artifact.
const artifactVersion = "otm-violation-artifact v1"

// Artifact is a replayable violation capture: the offending history
// prefix in the textual format of internal/history plus the verdict and
// diagnosis the online monitor produced, so an offline `opacheck
// -replay` can independently re-derive the same non-opaque verdict and
// culprit set. The encoding is deliberately a valid opacheck corpus
// file — metadata rides in `# ` comment lines, the history is one
// parseable line — so even tooling that knows nothing about artifacts
// can check the history inside one.
//
// An artifact is replayable when the capturing session retained the
// full offending prefix. A session that truncated before the violation
// holds only the live suffix since its last checkpoint, which is
// judged from reachable-state roots rather than the initial state; such
// captures still record the suffix and diagnosis for a human, but
// Replayable is false and Replay refuses them.
type Artifact struct {
	// Session names the fleet member that observed the violation.
	Session string
	// PrefixLen is the length of the shortest non-opaque prefix, as a
	// global event count (checkpoints included).
	PrefixLen int
	// Event renders the violating event — the last of the prefix.
	Event string
	// Culprits is the diagnosed culprit set (sorted), valid when
	// Diagnosed.
	Culprits  []history.TxID
	Diagnosed bool
	// Replayable reports whether History is the complete offending
	// prefix (no truncation checkpoint preceded it).
	Replayable bool
	// History is the retained portion of the offending prefix.
	History history.History
}

// NewArtifact builds the artifact for one session's violation.
func NewArtifact(session string, v monitor.Violation) *Artifact {
	a := &Artifact{
		Session:    session,
		PrefixLen:  v.PrefixLen,
		Event:      v.Event.String(),
		Diagnosed:  v.Diagnosed,
		Replayable: v.PrefixLen == len(v.Prefix),
		History:    v.Prefix,
	}
	if v.Diagnosed {
		a.Culprits = append([]history.TxID(nil), v.Diagnosis.Implicated...)
		sort.Slice(a.Culprits, func(i, j int) bool { return a.Culprits[i] < a.Culprits[j] })
	}
	return a
}

// Encode renders the artifact: a version line, `# key: value` metadata,
// then the history as one line in the internal/history grammar.
func (a *Artifact) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# %s\n", artifactVersion)
	fmt.Fprintf(&b, "# session: %s\n", a.Session)
	fmt.Fprintf(&b, "# prefix-len: %d\n", a.PrefixLen)
	fmt.Fprintf(&b, "# event: %s\n", a.Event)
	fmt.Fprintf(&b, "# status: non-opaque\n")
	fmt.Fprintf(&b, "# replayable: %v\n", a.Replayable)
	fmt.Fprintf(&b, "# diagnosed: %v\n", a.Diagnosed)
	fmt.Fprintf(&b, "# culprits: %s\n", history.TxList(a.Culprits))
	fmt.Fprintf(&b, "%s\n", a.History.String())
	return b.Bytes()
}

// ParseArtifact decodes an artifact produced by Encode.
func ParseArtifact(r io.Reader) (*Artifact, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	a := &Artifact{}
	sawVersion := false
	sawHistory := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			if !sawVersion {
				if body != artifactVersion {
					return nil, fmt.Errorf("controlplane: not a violation artifact (first line %q, want %q)", body, artifactVersion)
				}
				sawVersion = true
				continue
			}
			key, val, ok := strings.Cut(body, ":")
			if !ok {
				continue // free-form comment
			}
			val = strings.TrimSpace(val)
			var err error
			switch strings.TrimSpace(key) {
			case "session":
				a.Session = val
			case "prefix-len":
				a.PrefixLen, err = strconv.Atoi(val)
			case "event":
				a.Event = val
			case "replayable":
				a.Replayable, err = strconv.ParseBool(val)
			case "diagnosed":
				a.Diagnosed, err = strconv.ParseBool(val)
			case "culprits":
				a.Culprits, err = parseTxList(val)
			}
			if err != nil {
				return nil, fmt.Errorf("controlplane: artifact header %q: %w", body, err)
			}
			continue
		}
		if sawHistory {
			return nil, fmt.Errorf("controlplane: artifact has more than one history line")
		}
		if !sawVersion {
			return nil, fmt.Errorf("controlplane: not a violation artifact (no version header)")
		}
		h, err := history.Parse(line)
		if err != nil {
			return nil, fmt.Errorf("controlplane: artifact history: %w", err)
		}
		a.History = h
		sawHistory = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawVersion {
		return nil, fmt.Errorf("controlplane: not a violation artifact (no version header)")
	}
	if !sawHistory {
		return nil, fmt.Errorf("controlplane: artifact has no history line")
	}
	return a, nil
}

func parseTxList(s string) ([]history.TxID, error) {
	if s == "" {
		return nil, nil
	}
	var out []history.TxID
	for _, f := range strings.Fields(s) {
		id, ok := strings.CutPrefix(f, "T")
		if !ok {
			return nil, fmt.Errorf("bad transaction %q", f)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("bad transaction %q", f)
		}
		out = append(out, history.TxID(n))
	}
	return out, nil
}

// ReplayOutcome is the result of re-checking an artifact offline.
type ReplayOutcome struct {
	// Diagnosis is the fresh offline diagnosis of the artifact history.
	Diagnosis core.Diagnosis
	// VerdictMatches reports that the replay re-derived the recorded
	// verdict: the history is non-opaque with the recorded prefix
	// length.
	VerdictMatches bool
	// CulpritsMatch reports that the fresh culprit set equals the
	// recorded one. Vacuously true when the capture was undiagnosed.
	CulpritsMatch bool
}

// Confirmed reports full agreement between the capture and the replay.
func (o ReplayOutcome) Confirmed() bool { return o.VerdictMatches && o.CulpritsMatch }

// Replay re-checks the artifact's history with a fresh offline
// diagnosis — no state shared with the monitor that captured it — and
// compares verdict, violation position and culprit set against what the
// capture recorded. cfg supplies the object environment (zero value:
// registers initialized to 0, the monitor default); cfg.Context is
// never reused from a capture, so the replay is an independent witness.
func (a *Artifact) Replay(cfg core.Config) (ReplayOutcome, error) {
	if !a.Replayable {
		return ReplayOutcome{}, fmt.Errorf("controlplane: artifact from session %q is not replayable (the capturing session truncated; only the live suffix was retained)", a.Session)
	}
	d, err := core.Diagnose(a.History, cfg)
	if err != nil {
		return ReplayOutcome{}, err
	}
	out := ReplayOutcome{Diagnosis: d}
	out.VerdictMatches = !d.Opaque && d.PrefixLen == a.PrefixLen
	if a.Diagnosed {
		fresh := append([]history.TxID(nil), d.Implicated...)
		sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
		out.CulpritsMatch = len(fresh) == len(a.Culprits)
		for i := range fresh {
			if !out.CulpritsMatch || fresh[i] != a.Culprits[i] {
				out.CulpritsMatch = false
				break
			}
		}
	} else {
		out.CulpritsMatch = true
	}
	return out, nil
}
