package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/scenario"
)

// EngineVersion is the cache-key component invalidating every memoized
// result when the engine's semantics change. Bump it whenever the
// simulation physics, the scenario compiler, or the PointResult layout
// changes meaning.
const EngineVersion = "sweep-engine/v2"

// Cache is a content-addressed result store: one JSON file per key under
// <dir>/<key[:2]>/<key>.json, written atomically (temp file + rename) so a
// crashed run never leaves a truncated entry behind. A nil *Cache disables
// caching; every method is then a no-op.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty cache dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// envelope is the on-disk entry layout: the key is echoed so a moved or
// corrupted file can never satisfy the wrong lookup.
type envelope struct {
	Key    string          `json:"key"`
	Engine string          `json:"engine"`
	Value  json.RawMessage `json:"value"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get loads the value stored under key into out. Any failure — missing
// entry, unreadable file, mismatched key, undecodable value — is a miss:
// the caller recomputes and overwrites.
func (c *Cache) Get(key string, out any) bool {
	if c == nil || len(key) < 2 {
		return false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.Key != key || env.Engine != EngineVersion {
		return false
	}
	return json.Unmarshal(env.Value, out) == nil
}

// Put stores value under key atomically.
func (c *Cache) Put(key string, value any) error {
	if c == nil {
		return nil
	}
	if len(key) < 2 {
		return fmt.Errorf("sweep: cache key %q too short", key)
	}
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("sweep: encoding cache value: %w", err)
	}
	data, err := json.Marshal(envelope{Key: key, Engine: EngineVersion, Value: raw})
	if err != nil {
		return err
	}
	dir := filepath.Dir(c.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp's 0600 would make the entry unreadable for other users
	// sharing the cache directory; entries are world-readable like any
	// other artifact.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		// A failed rename (read-only target, cross-device dir swap) must
		// not litter the cache with put-* files.
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Key hashes arbitrary string parts (plus the engine version) into a cache
// key — the generic form for memoizing non-scenario computations. Every
// parameter that influences the result, including the seed, must appear in
// the parts.
func Key(parts ...string) string {
	h := sha256.New()
	h.Write([]byte(EngineVersion))
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keyEnvelope is the hashed form of one point.
type keyEnvelope struct {
	Engine      string               `json:"engine"`
	Scenario    scenario.Scenario    `json:"scenario"`
	Replication scenario.Replication `json:"replication"`
}

// pointKeyer derives the content address of one scenario point: the
// SHA-256 of (engine version, resolved scenario JSON, replication config).
// The replication worker and shard counts are zeroed first — they change
// wall-clock time, never results, so they must not split the cache — and
// scenarios with a wall-clock timeout are not cacheable at all (the
// completed prefix depends on machine speed), which cacheablePoint guards.
// It keeps reusable marshal buffers and heap-resident scratch (the envelope and normalized replication live in
// the keyer, so neither escapes per call), so keying the many points of
// one engine run stops allocating a fresh JSON blob per point. Not safe
// for concurrent use; the engine pools keyers.
type pointKeyer struct {
	buf bytes.Buffer
	enc *json.Encoder
	env keyEnvelope
	rep scenario.Replication
}

func newPointKeyer() *pointKeyer {
	k := &pointKeyer{}
	k.enc = json.NewEncoder(&k.buf)
	return k
}

// key returns the content address of s.
func (k *pointKeyer) key(s scenario.Scenario) (string, error) {
	s.ApplyDefaults()
	k.rep = *s.Replication
	k.rep.Workers = 0
	k.rep.Shards = 0
	s.Replication = &k.rep
	k.buf.Reset()
	k.env = keyEnvelope{EngineVersion, s, k.rep}
	if err := k.enc.Encode(&k.env); err != nil {
		return "", fmt.Errorf("sweep: encoding point key: %w", err)
	}
	blob := k.buf.Bytes()
	// Encoder appends a newline Marshal does not; hash the bare JSON so
	// keys match every cache entry written before the buffered path.
	blob = blob[:len(blob)-1]
	sum := sha256.Sum256(blob)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:]), nil
}

// cacheablePoint reports whether a point's result is machine-independent
// and therefore safe to memoize.
func cacheablePoint(s scenario.Scenario) bool {
	return s.Replication == nil || s.Replication.TimeoutSec == 0
}
