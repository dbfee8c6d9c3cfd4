package shard

import (
	"reflect"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/fault"
)

func open(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := Open(engine.DualAddress, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func wantErr(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err %v, want one containing %q", err, want)
	}
}

// TestAssign: global ids follow statement order across shards; a local row
// out of sequence and an unregistered table are refused and assign nothing.
func TestAssign(t *testing.T) {
	c := open(t, 2)
	c.Register("t", "id", false)
	for i, a := range []struct{ shard, local int }{{0, 0}, {1, 0}, {0, 1}} {
		g, err := c.Assign("t", a.shard, a.local)
		if err != nil || g != i {
			t.Fatalf("Assign(%d, %d) = %d, %v; want %d", a.shard, a.local, g, err, i)
		}
	}
	_, err := c.Assign("t", 1, 2)
	wantErr(t, err, "shard: table \"t\" shard 1: local row 2 out of sequence (want 1)")
	_, err = c.Assign("u", 0, 0)
	wantErr(t, err, "not managed by the cluster")
	if g, err := c.Assign("t", 1, 1); err != nil || g != 3 {
		t.Fatalf("Assign after a refusal = %d, %v; want 3", g, err)
	}
	if s, l, ok := c.Owner("t", 2); !ok || s != 0 || l != 1 {
		t.Fatalf("Owner(2) = %d, %d, %v", s, l, ok)
	}
	if g, ok := c.Global("t", 1, 1); !ok || g != 3 {
		t.Fatalf("Global(1, 1) = %d, %v", g, ok)
	}
	if _, ok := c.Global("t", 1, 2); ok {
		t.Fatal("Global of an unassigned local row")
	}
}

// TestAssignRecovered: replayed rows keep their logged global ids, in any
// order. A negative id and an id assigned twice are refused; a hole reads
// as missing until it is filled; the next fresh id is past the highest.
func TestAssignRecovered(t *testing.T) {
	c := open(t, 2)
	c.Register("t", "id", false)
	wantErr(t, c.AssignRecovered("t", 0, 0, -1), "negative global row id -1")
	if err := c.AssignRecovered("t", 0, 0, 2); err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{0, 1, 3} {
		if _, _, ok := c.Owner("t", g); ok {
			t.Fatalf("Owner(%d) found before it was recovered", g)
		}
	}
	// A refused row takes no local row: shard 1's first is still to come.
	wantErr(t, c.AssignRecovered("t", 1, 0, 2), "global row 2 assigned twice")
	wantErr(t, c.AssignRecovered("t", 1, 5, 0), "local row 5 out of sequence (want 0)")
	wantErr(t, c.AssignRecovered("u", 0, 0, 0), "not managed by the cluster")
	if err := c.AssignRecovered("t", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if s, l, ok := c.Owner("t", 0); !ok || s != 0 || l != 1 {
		t.Fatalf("filled hole: Owner(0) = %d, %d, %v", s, l, ok)
	}
	if _, _, ok := c.Owner("t", 1); ok {
		t.Fatal("Owner(1) found, still a hole")
	}
	if g, err := c.Assign("t", 1, 0); err != nil || g != 3 {
		t.Fatalf("Assign after recovery = %d, %v; want 3, past the high-water mark", g, err)
	}
}

// TestRegistryRoundTrip: a restored registry answers every lookup as the
// one snapshotted did and snapshots equal; a snapshot is refused at
// another shard count and over a registry that is not empty.
func TestRegistryRoundTrip(t *testing.T) {
	c := open(t, 3)
	c.Register("t", "id", false)
	c.Register("w", "key", true)
	c.Register("d", "id", false)
	c.MarkUnstable("d")
	for i := 0; i < 7; i++ {
		if _, err := c.Assign("t", i%3, i/3); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AssignRecovered("d", 2, 0, 4); err != nil {
		t.Fatal(err)
	}
	snap := c.RegistrySnapshot()

	r := open(t, 3)
	if err := r.RestoreRegistry(snap); err != nil {
		t.Fatal(err)
	}
	if got := r.RegistrySnapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("restored snapshot %+v, want %+v", got, snap)
	}
	for _, name := range []string{"t", "w", "d", "x"} {
		col, ok := c.PartitionColumn(name)
		rcol, rok := r.PartitionColumn(name)
		if col != rcol || ok != rok || c.Registered(name) != r.Registered(name) {
			t.Fatalf("%s: PartitionColumn %q, %v restored as %q, %v", name, col, ok, rcol, rok)
		}
		for g := -1; g <= 8; g++ {
			s, l, ok := c.Owner(name, g)
			rs, rl, rok := r.Owner(name, g)
			if s != rs || l != rl || ok != rok {
				t.Fatalf("%s: Owner(%d) = %d, %d, %v restored as %d, %d, %v", name, g, s, l, ok, rs, rl, rok)
			}
		}
	}
	if g, err := r.Assign("t", 1, 2); err != nil || g != 7 {
		t.Fatalf("Assign on the restored registry = %d, %v; want 7", g, err)
	}

	wantErr(t, open(t, 2).RestoreRegistry(snap), "registry snapshot taken at 3 shards, cluster has 2")
	wantErr(t, r.RestoreRegistry(snap), "requires an empty registry")
}

// TestPointRouting: a registered single-word first column routes points
// until a statement rewrites it; a wide one and an unregistered table never
// do.
func TestPointRouting(t *testing.T) {
	c := open(t, 2)
	c.Register("t", "id", false)
	c.Register("w", "key", true)
	if col, ok := c.PartitionColumn("t"); col != "id" || !ok {
		t.Fatalf("PartitionColumn(t) = %q, %v", col, ok)
	}
	if col, ok := c.PartitionColumn("w"); col != "key" || ok {
		t.Fatalf("wide PartitionColumn(w) = %q, %v", col, ok)
	}
	c.MarkUnstable("t")
	c.MarkUnstable("nope") // no-op
	if col, ok := c.PartitionColumn("t"); col != "id" || ok {
		t.Fatalf("after MarkUnstable, PartitionColumn(t) = %q, %v", col, ok)
	}
	if col, ok := c.PartitionColumn("nope"); col != "" || ok || c.Registered("nope") {
		t.Fatalf("unregistered PartitionColumn = %q, %v", col, ok)
	}
}

// TestEnableFaults: every shard gets an injector of the same settings and a
// seed of its own, the same on every call; a disabled config removes them.
func TestEnableFaults(t *testing.T) {
	cfg := fault.Config{Enabled: true, Seed: 42, RBER: 1e-5}
	seeds := func(c *Cluster) []uint64 {
		var out []uint64
		for i := 0; i < c.N(); i++ {
			got := c.Shard(i).Faults().Config()
			if got.RBER != cfg.RBER || got.Enabled != cfg.Enabled {
				t.Fatalf("shard %d: config %+v, want %+v but the seed", i, got, cfg)
			}
			out = append(out, got.Seed)
		}
		return out
	}
	a, b := open(t, 4), open(t, 4)
	a.EnableFaults(cfg)
	b.EnableFaults(cfg)
	sa := seeds(a)
	if !reflect.DeepEqual(sa, seeds(b)) {
		t.Fatalf("seeds %v and %v for one config", sa, seeds(b))
	}
	for i, s := range sa {
		for _, o := range sa[:i] {
			if s == o {
				t.Fatalf("shards share seed %d: %v", s, sa)
			}
		}
	}
	a.EnableFaults(fault.Config{Seed: 42})
	for i := 0; i < a.N(); i++ {
		if a.Shard(i).Faults() != nil {
			t.Fatalf("shard %d keeps an injector after a disabled config", i)
		}
	}
}
