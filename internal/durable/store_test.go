package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// openRecovered opens a store on dir and recovers a fresh cluster into
// it, returning both. The store is closed by the caller (or abandoned,
// when the test simulates a crash).
func openRecovered(t *testing.T, dir string, shards int) (*Store, *shard.Cluster, RecoveryStats) {
	t.Helper()
	s, err := Open(dir, engine.DualAddress, shards, Options{Fsync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c, err := shard.Open(engine.DualAddress, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover(c)
	if err != nil {
		t.Fatal(err)
	}
	return s, c, rs
}

func mustExec(t *testing.T, c *shard.Cluster, src string) *sql.Result {
	t.Helper()
	res, _, err := sql.Execute(c, src, sql.ExecOptions{})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

func TestOpenFreshAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, _, rs := openRecovered(t, dir, 2)
	if rs.Checkpoint || rs.Records != 0 || rs.Epoch != 1 {
		t.Fatalf("fresh dir recovered %+v", rs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with matching geometry: fine.
	s2, _, _ := openRecovered(t, dir, 2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openRecovered(t, dir, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, engine.DualAddress, 4, Options{}); err == nil ||
		!strings.Contains(err.Error(), "shard") {
		t.Fatalf("shard-count mismatch: %v", err)
	}
	// The MANIFEST names the dual-address engine; a data dir of any other
	// (the retired row-only engine wrote "row") is refused.
	mpath := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"mode": "dual"`) {
		t.Fatalf("MANIFEST = %s, want mode dual", raw)
	}
	if err := os.WriteFile(mpath, []byte(strings.Replace(string(raw), `"dual"`, `"row"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, engine.DualAddress, 2, Options{}); err == nil ||
		!strings.Contains(err.Error(), "mode") {
		t.Fatalf("mode mismatch: %v", err)
	}
}

func TestRecoverRejectsShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, engine.DualAddress, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := shard.Open(engine.DualAddress, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(c); err == nil {
		t.Fatal("recover with wrong shard count succeeded")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "one shard", 4: "four shards"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			s, c, _ := openRecovered(t, dir, shards)
			mustExec(t, c, "CREATE TABLE kv (k, grp, val) CAPACITY 1024")
			mustExec(t, c, "INSERT INTO kv VALUES (1, 0, 10), (2, 1, 20), (3, 0, 30)")
			mustExec(t, c, "UPDATE kv SET val = 99 WHERE k = 2")

			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if s.Epoch() != 2 {
				t.Fatalf("epoch after checkpoint = %d, want 2", s.Epoch())
			}
			// Post-checkpoint mutations land in the new epoch's WAL.
			mustExec(t, c, "INSERT INTO kv VALUES (4, 1, 40)")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, c2, rs := openRecovered(t, dir, shards)
			defer s2.Close()
			if !rs.Checkpoint || rs.Epoch != 2 {
				t.Fatalf("recovered %+v, want checkpoint at epoch 2", rs)
			}
			got := mustExec(t, c2, "SELECT * FROM kv ORDER BY k")
			want := mustExec(t, c, "SELECT * FROM kv ORDER BY k")
			if len(got.Rows) != 4 {
				t.Fatalf("recovered %d rows, want 4", len(got.Rows))
			}
			for i := range want.Rows {
				for j := range want.Rows[i] {
					if got.Rows[i][j] != want.Rows[i][j] {
						t.Fatalf("row %d: got %v, want %v", i, got.Rows[i], want.Rows[i])
					}
				}
			}
		})
	}
}

// TestCheckpointTruncatesLog verifies the epoch protocol sweeps the old
// epoch's WAL segments and checkpoints, so the directory does not grow
// without bound.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s, c, _ := openRecovered(t, dir, 2)
	mustExec(t, c, "CREATE TABLE kv (k, val) CAPACITY 1024")
	for i := 0; i < 20; i++ {
		mustExec(t, c, "INSERT INTO kv VALUES (1, 2)")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // twice: epoch 3, epoch-2 files swept
		t.Fatal(err)
	}
	defer s.Close()

	var walFiles, ckptFiles []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch {
		case strings.HasPrefix(d.Name(), "wal-"):
			walFiles = append(walFiles, d.Name())
		case strings.HasPrefix(d.Name(), "checkpoint-"), strings.HasPrefix(d.Name(), "registry-"):
			ckptFiles = append(ckptFiles, d.Name())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range walFiles {
		if !strings.Contains(name, "-00000003-") {
			t.Fatalf("stale WAL segment survived sweep: %q (all: %v)", name, walFiles)
		}
	}
	for _, name := range ckptFiles {
		if !strings.Contains(name, "00000003") {
			t.Fatalf("stale checkpoint survived sweep: %q (all: %v)", name, ckptFiles)
		}
	}
}

// TestManifestCommitPoint: files from a half-finished checkpoint (new
// epoch's checkpoint written, MANIFEST not yet renamed) must be ignored
// at recovery — the manifest is the commit point.
func TestManifestCommitPoint(t *testing.T) {
	dir := t.TempDir()
	s, c, _ := openRecovered(t, dir, 1)
	mustExec(t, c, "CREATE TABLE kv (k, val) CAPACITY 256")
	mustExec(t, c, "INSERT INTO kv VALUES (1, 10)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge epoch-2 debris as if the process died between writing the
	// new checkpoint and renaming MANIFEST: a bogus checkpoint file that
	// would fail to load if anything looked at it.
	if err := os.WriteFile(filepath.Join(dir, "shard-0000", "checkpoint-00000002.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "registry-00000002.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, c2, rs := openRecovered(t, dir, 1)
	defer s2.Close()
	if rs.Epoch != 1 || rs.Checkpoint {
		t.Fatalf("recovered %+v, want epoch 1 replay (manifest never committed epoch 2)", rs)
	}
	if res := mustExec(t, c2, "SELECT COUNT(*) FROM kv"); res.Rows[0][0] != 1 {
		t.Fatalf("recovered COUNT(*) = %d, want 1", res.Rows[0][0])
	}
}

func TestRecoverRejectsCorruptMidLog(t *testing.T) {
	dir := t.TempDir()
	s, c, _ := openRecovered(t, dir, 1)
	mustExec(t, c, "CREATE TABLE kv (k, val) CAPACITY 256")
	mustExec(t, c, "INSERT INTO kv VALUES (1, 10)")
	mustExec(t, c, "INSERT INTO kv VALUES (2, 20)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the first record's payload: corruption before
	// the tail is not a torn write and must fail recovery loudly. (The
	// flip sits past the length prefix, so it reads as a checksum
	// mismatch, never as a short tail.)
	seg := filepath.Join(dir, "shard-0000", segName(1, 1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHeader+1] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, engine.DualAddress, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(c2); err == nil {
		t.Fatal("recovery over mid-log corruption succeeded")
	}
}

func TestCheckpointBeforeRecoverFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, engine.DualAddress, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint without an attached cluster succeeded")
	}
}
