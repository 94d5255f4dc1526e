package incident

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// SchemaVersion is the manifest schema this code writes; verify rejects
// bundles from a newer schema instead of misreading them.
const SchemaVersion = 1

// ManifestName is the manifest's entry name inside a bundle.
const ManifestName = "manifest.json"

// Clock is one rank's capture-time clock pair. Wall clocks across hosts
// drift; mono is nanoseconds since that rank's process start, so two ranks'
// timelines align by (wall - wall0) with mono as the per-rank sanity check.
type Clock struct {
	Rank   int   `json:"rank"`
	WallNs int64 `json:"wall_ns"`
	MonoNs int64 `json:"mono_ns"`
}

// Manifest is the bundle's manifest.json.
type Manifest struct {
	Schema    int                 `json:"schema"`
	ID        string              `json:"id"`
	CreatedNs int64               `json:"created_ns"`
	Ranks     int                 `json:"ranks"`         // job size
	GotRanks  []int               `json:"got_ranks"`     // ranks whose evidence arrived
	Missing   []int               `json:"missing_ranks"` // ranks that timed out
	Trigger   Trigger             `json:"trigger"`
	Clocks    []Clock             `json:"clocks"`
	Entries   map[string][]string `json:"entries"` // "rank-N" → sorted file list
	GoVersion string              `json:"go_version"`
}

// rankDir names rank r's directory inside the bundle.
func rankDir(r int) string { return fmt.Sprintf("rank-%d", r) }

// writeBundle assembles the outer tar.gz from per-rank evidence blobs
// (gzipped inner tars keyed by rank) and writes it atomically under dir.
// Returns the bundle path.
func writeBundle(dir, id string, trig Trigger, ranks int, blobs map[int][]byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	man := Manifest{
		Schema:    SchemaVersion,
		ID:        id,
		CreatedNs: time.Now().UnixNano(),
		Ranks:     ranks,
		Trigger:   trig,
		Entries:   map[string][]string{},
		GoVersion: runtime.Version(),
	}

	type rankFiles struct {
		rank  int
		files map[string][]byte
	}
	var unpacked []rankFiles
	for r := 0; r < ranks; r++ {
		blob, ok := blobs[r]
		if !ok || len(blob) == 0 {
			man.Missing = append(man.Missing, r)
			continue
		}
		files, err := unpackEvidence(blob)
		if err != nil || len(files) == 0 {
			man.Missing = append(man.Missing, r)
			continue
		}
		man.GotRanks = append(man.GotRanks, r)
		unpacked = append(unpacked, rankFiles{r, files})
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		man.Entries[rankDir(r)] = names
		if mb, ok := files[FileMeta]; ok {
			var meta Meta
			if json.Unmarshal(mb, &meta) == nil {
				man.Clocks = append(man.Clocks, Clock{Rank: r, WallNs: meta.WallNs, MonoNs: meta.MonoNs})
			}
		}
	}
	if man.GotRanks == nil {
		man.GotRanks = []int{}
	}
	if man.Missing == nil {
		man.Missing = []int{}
	}

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	tw := tar.NewWriter(zw)
	now := time.Now()
	add := func(name string, data []byte) error {
		hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(len(data)), ModTime: now}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", err
	}
	if err := add(ManifestName, mb); err != nil {
		return "", err
	}
	for _, rf := range unpacked {
		names := man.Entries[rankDir(rf.rank)]
		for _, name := range names {
			if err := add(rankDir(rf.rank)+"/"+name, rf.files[name]); err != nil {
				return "", err
			}
		}
	}
	if err := tw.Close(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}

	path := filepath.Join(dir, id+".tar.gz")
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return "", err
	}
	return path, nil
}

// writeFileAtomic writes via a temp file + rename so a reader (CI, an
// operator's shell glob) never sees a torn bundle.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Bundle is a read-back incident bundle.
type Bundle struct {
	Path     string
	Manifest Manifest
	Files    map[string][]byte // "rank-0/cpu.pprof" → bytes
}

// ReadBundle opens and fully decodes a bundle file.
func ReadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: not a gzip stream: %w", path, err)
	}
	defer zr.Close()
	b := &Bundle{Path: path, Files: map[string][]byte{}}
	tr := tar.NewReader(zr)
	for {
		hdr, err := tr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("%s: tar: %w", path, err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(tr); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", path, hdr.Name, err)
		}
		b.Files[hdr.Name] = buf.Bytes()
	}
	mb, ok := b.Files[ManifestName]
	if !ok {
		return nil, fmt.Errorf("%s: no %s entry", path, ManifestName)
	}
	if err := json.Unmarshal(mb, &b.Manifest); err != nil {
		return nil, fmt.Errorf("%s: manifest: %w", path, err)
	}
	return b, nil
}

// Verify checks the bundle's internal consistency: schema, manifest↔entry
// agreement, per-rank meta presence, and that every .pprof and .json entry
// actually parses. Returns every problem found.
func (b *Bundle) Verify() []string {
	var probs []string
	bad := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	m := b.Manifest
	if m.Schema <= 0 || m.Schema > SchemaVersion {
		bad("unsupported schema %d (this tool reads ≤ %d)", m.Schema, SchemaVersion)
	}
	if m.ID == "" {
		bad("empty manifest id")
	}
	if m.Ranks <= 0 {
		bad("manifest ranks = %d", m.Ranks)
	}
	if len(m.GotRanks)+len(m.Missing) != m.Ranks {
		bad("got_ranks (%d) + missing_ranks (%d) != ranks (%d)",
			len(m.GotRanks), len(m.Missing), m.Ranks)
	}
	if m.Trigger.Kind == "" {
		bad("manifest trigger has no kind")
	}
	for _, r := range m.GotRanks {
		dir := rankDir(r)
		names, ok := m.Entries[dir]
		if !ok {
			bad("rank %d in got_ranks but has no entries", r)
			continue
		}
		hasMeta := false
		for _, name := range names {
			full := dir + "/" + name
			data, ok := b.Files[full]
			if !ok {
				bad("%s listed in manifest but absent from archive", full)
				continue
			}
			switch {
			case strings.HasSuffix(name, ".pprof"):
				if _, err := ParseProfile(data); err != nil {
					bad("%s: unparseable profile: %v", full, err)
				}
			case strings.HasSuffix(name, ".json"):
				var v any
				if err := json.Unmarshal(data, &v); err != nil {
					bad("%s: invalid JSON: %v", full, err)
				}
			}
			if name == FileMeta {
				hasMeta = true
			}
		}
		if !hasMeta {
			bad("rank %d evidence has no %s", r, FileMeta)
		}
	}
	// Archive entries not accounted for by the manifest.
	for full := range b.Files {
		if full == ManifestName {
			continue
		}
		dir, name, ok := strings.Cut(full, "/")
		if !ok {
			bad("unexpected top-level entry %q", full)
			continue
		}
		found := false
		for _, n := range b.Manifest.Entries[dir] {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			bad("archive entry %q not listed in manifest", full)
		}
	}
	sort.Strings(probs)
	return probs
}

// RankFile returns one rank's evidence file (nil when absent).
func (b *Bundle) RankFile(rank int, name string) []byte {
	return b.Files[rankDir(rank)+"/"+name]
}

// RankMeta decodes one rank's meta.json.
func (b *Bundle) RankMeta(rank int) (Meta, bool) {
	var m Meta
	data := b.RankFile(rank, FileMeta)
	if data == nil {
		return m, false
	}
	return m, json.Unmarshal(data, &m) == nil
}
