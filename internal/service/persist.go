package service

// Disk tier of the result cache: every completed synthesis is spilled
// to PersistDir as one checksummed JSON file named by its content key,
// so a restarted daemon serves warm designs byte-identical to the run
// that produced them (ROADMAP: "persistent cache backend").
//
// Crash safety: entries are written to a temp file in the same
// directory, fsynced, renamed over the final name, and the directory
// is fsynced — a kill -9 at any instant leaves either the old state or
// the complete new entry, never a torn file. Startup recovery scans
// the directory, silently removes temp leftovers and every entry that
// fails validation (unparsable JSON, checksum mismatch, key/filename
// mismatch, stale canonical-key schema, or a designio format version
// this build does not write), and rebuilds the in-memory LRU from the
// survivors, oldest first.
//
// The design payload is stored as a base64 []byte field — NOT as an
// embedded json.RawMessage — because designio.Save returns indented
// JSON and re-marshaling a RawMessage would compact it, silently
// breaking the byte-identity contract the e2e tests pin.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"xring/internal/designio"
	"xring/internal/resilience"
)

// persistPayloadVersion versions the envelope payload shape —
// independently of the key schema, which versions request addressing.
// Bump it whenever Summary gains a field, so recovery discards entries
// whose stored summaries would deserialize with zero values for data
// this build relies on.
// v2: Summary carries mrrs (the exploration frontier's MRR objective).
const persistPayloadVersion = 2

// persistEntry is the on-disk envelope of one cached result.
type persistEntry struct {
	// Schema is the canonical-key schema the entry was written under; a
	// mismatch means the key no longer addresses the same request space.
	Schema string `json:"schema"`
	// Payload is persistPayloadVersion at write time; entries written
	// before it existed deserialize as 0 and are discarded.
	Payload int `json:"payload"`
	// DesignVersion is designio.FormatVersion at write time.
	DesignVersion int      `json:"designVersion"`
	Key           string   `json:"key"`
	JobID         string   `json:"jobID"`
	Summary       *Summary `json:"summary"`
	// Design is the exact designio.Save payload (base64 in JSON).
	Design []byte `json:"design"`
	// Checksum is the SHA-256 of Design, hex-encoded: the corruption
	// check for entries that survived the atomic-write protocol but not
	// the disk underneath it.
	Checksum string `json:"checksum"`
}

// keyFile maps a content key to its filename (and back). Keys look
// like "sha256:<64 hex>"; the file drops the prefix.
var keyFileRe = regexp.MustCompile(`^[0-9a-f]{64}\.json$`)

func fileForKey(key string) (string, bool) {
	hexpart, ok := strings.CutPrefix(key, "sha256:")
	if !ok || !keyFileRe.MatchString(hexpart+".json") {
		return "", false
	}
	return hexpart + ".json", true
}

func keyForFile(name string) (string, bool) {
	if !keyFileRe.MatchString(name) {
		return "", false
	}
	return "sha256:" + strings.TrimSuffix(name, ".json"), true
}

// persistStore is the disk tier. All methods are safe for concurrent
// use; the mutex serializes writes and evictions (reads only take it
// for the bookkeeping map).
type persistStore struct {
	dir string
	cap int
	inj *resilience.Injector
	st  *stats // the owning server's counters

	mu   sync.Mutex
	seq  int64
	ages map[string]int64 // key -> logical write age, for eviction
}

// newPersistStore opens (creating if needed) the disk tier rooted at
// dir and runs crash recovery. It returns the store plus the surviving
// entries oldest-first, ready to replay into the memory LRU.
func newPersistStore(dir string, capacity int, inj *resilience.Injector, st *stats) (*persistStore, []*cached, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: persist dir: %w", err)
	}
	p := &persistStore{dir: dir, cap: capacity, inj: inj, st: st, ages: map[string]int64{}}
	entries, err := p.recover()
	if err != nil {
		return nil, nil, err
	}
	return p, entries, nil
}

// recover scans the directory: temp leftovers and invalid entries are
// removed, valid ones returned oldest-first (by file mtime).
func (p *persistStore) recover() ([]*cached, error) {
	names, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, fmt.Errorf("service: persist recovery: %w", err)
	}
	type aged struct {
		c   *cached
		key string
		mod int64
	}
	var out []aged
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		path := filepath.Join(p.dir, name)
		key, ok := keyForFile(name)
		if !ok {
			// Temp files from a crashed write, or foreign junk: a temp
			// leftover is expected debris, anything else is discarded
			// noisily enough for the counter but silently for requests.
			_ = os.Remove(path)
			p.st.persistDiscarded.Add(1)
			continue
		}
		c, ok := p.load(path, key)
		if !ok {
			_ = os.Remove(path)
			p.st.persistDiscarded.Add(1)
			continue
		}
		info, ierr := de.Info()
		mod := int64(0)
		if ierr == nil {
			mod = info.ModTime().UnixNano()
		}
		out = append(out, aged{c: c, key: key, mod: mod})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].mod != out[j].mod {
			return out[i].mod < out[j].mod
		}
		return out[i].key < out[j].key // stable tie-break for equal mtimes
	})
	entries := make([]*cached, len(out))
	for i, a := range out {
		p.seq++
		p.ages[a.key] = p.seq
		entries[i] = a.c
		p.st.persistRecovered.Add(1)
	}
	return entries, nil
}

// Entry-rejection verdicts from decodeEntry. The split matters to the
// cluster peer-fill metrics: a stale entry (written by a different key
// schema, payload or designio version) is an expected consequence of a
// mixed-version fleet, while a corrupt one (checksum, key mismatch,
// unparsable JSON) means bytes were damaged in storage or transit.
const (
	rejectStale   = "stale"
	rejectCorrupt = "corrupt"
)

// decodeEntry validates one persist envelope — read from disk or
// fetched from a cluster peer; the validation is identical, so a peer
// can never smuggle in an entry that local crash recovery would have
// discarded. It returns the cached result and "" on success, or nil
// and a rejection verdict.
func decodeEntry(data []byte, wantKey string) (*cached, string) {
	var e persistEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, rejectCorrupt
	}
	if e.Schema != keySchema || e.Payload != persistPayloadVersion || e.DesignVersion != designio.FormatVersion {
		return nil, rejectStale
	}
	if e.Key != wantKey || e.Summary == nil || len(e.Design) == 0 {
		return nil, rejectCorrupt
	}
	sum := sha256.Sum256(e.Design)
	if e.Checksum != hex.EncodeToString(sum[:]) {
		return nil, rejectCorrupt
	}
	// The checksum guards the envelope; the version stamp inside the
	// payload must agree too (a forged or half-migrated entry fails here).
	if v, err := designio.PayloadVersion(e.Design); err != nil || v != designio.FormatVersion {
		return nil, rejectCorrupt
	}
	return &cached{key: e.Key, jobID: e.JobID, summary: e.Summary, design: e.Design}, ""
}

// encodeEntry serializes one cached result into the persist envelope —
// the disk-tier format, also served verbatim to cluster peers at
// GET /v1/cluster/entry/{key}.
func encodeEntry(c *cached) ([]byte, error) {
	sum := sha256.Sum256(c.design)
	return json.Marshal(&persistEntry{
		Schema:        keySchema,
		Payload:       persistPayloadVersion,
		DesignVersion: designio.FormatVersion,
		Key:           c.key,
		JobID:         c.jobID,
		Summary:       c.summary,
		Design:        c.design,
		Checksum:      hex.EncodeToString(sum[:]),
	})
}

// load reads and validates one entry file. Invalid in any way -> not ok.
func (p *persistStore) load(path, wantKey string) (*cached, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	c, reject := decodeEntry(data, wantKey)
	return c, reject == ""
}

// write spills one completed result to disk atomically: temp file in
// the same directory, fsync, rename, directory fsync. Past the cap the
// oldest entries are deleted first.
func (p *persistStore) write(c *cached) error {
	if err := p.inj.Fire("service.cache.write"); err != nil {
		return err
	}
	name, ok := fileForKey(c.key)
	if !ok {
		return fmt.Errorf("service: unpersistable key %q", c.key)
	}
	data, err := encodeEntry(c)
	if err != nil {
		return err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	tmp, err := os.CreateTemp(p.dir, "entry-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(p.dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(p.dir)

	p.seq++
	p.ages[c.key] = p.seq
	for p.cap > 0 && len(p.ages) > p.cap {
		oldKey, oldAge := "", int64(0)
		for k, a := range p.ages {
			if oldKey == "" || a < oldAge {
				oldKey, oldAge = k, a
			}
		}
		delete(p.ages, oldKey)
		if n, ok := fileForKey(oldKey); ok {
			_ = os.Remove(filepath.Join(p.dir, n))
		}
		mPersistEvicts.Inc()
	}
	mPersistWrites.Inc()
	return nil
}

// read fetches one entry by key, for memory-tier misses. A corrupt
// entry found on the read path is removed, same policy as recovery.
func (p *persistStore) read(key string) (*cached, bool) {
	if err := p.inj.Fire("service.cache.read"); err != nil {
		return nil, false
	}
	name, ok := fileForKey(key)
	if !ok {
		return nil, false // also rejects traversal attempts in user-supplied keys
	}
	path := filepath.Join(p.dir, name)
	c, ok := p.load(path, key)
	if !ok {
		if _, err := os.Stat(path); err == nil {
			_ = os.Remove(path)
			p.st.persistDiscarded.Add(1)
		}
		return nil, false
	}
	return c, true
}

// syncDir fsyncs a directory so a completed rename survives power
// loss. Errors are swallowed: some filesystems reject directory fsync,
// and the entry checksum catches whatever slips through.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
