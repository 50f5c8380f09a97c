package simclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSerialResource(t *testing.T) {
	s := New(0)
	r := s.NewResource("compute")
	a := s.Add(r, "a", 2)
	b := s.Add(r, "b", 3)
	mk, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Start != 0 || a.End != 2 || b.Start != 2 || b.End != 5 {
		t.Fatalf("a=[%v,%v] b=[%v,%v]", a.Start, a.End, b.Start, b.End)
	}
	if mk != 5 {
		t.Fatalf("makespan %v", mk)
	}
}

func TestParallelResourcesOverlap(t *testing.T) {
	s := New(0)
	r1 := s.NewResource("compute")
	r2 := s.NewResource("copy")
	a := s.Add(r1, "kernel", 4)
	b := s.Add(r2, "transfer", 3)
	mk, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Start != 0 || b.Start != 0 {
		t.Fatal("independent tasks on distinct resources must overlap")
	}
	if mk != 4 {
		t.Fatalf("makespan %v, want 4", mk)
	}
}

func TestDependencyOrdering(t *testing.T) {
	s := New(0)
	r1 := s.NewResource("copyH2D")
	r2 := s.NewResource("compute")
	in := s.Add(r1, "CF->ME", 2)
	k := s.Add(r2, "ME", 5, in)
	out := s.Add(r1, "MV->host", 1, k)
	mk, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if k.Start != 2 {
		t.Fatalf("kernel started at %v before its input arrived", k.Start)
	}
	if out.Start != 7 {
		t.Fatalf("output transfer started at %v, want 7", out.Start)
	}
	if mk != 8 {
		t.Fatalf("makespan %v", mk)
	}
}

func TestSingleCopyEngineSerializesDirections(t *testing.T) {
	// With one copy engine, an H2D and a D2H transfer must serialize even
	// though they are logically independent — the paper's Fig. 4 scenario.
	s := New(0)
	ce := s.NewResource("copy-engine")
	h2d := s.Add(ce, "h2d", 3)
	d2h := s.Add(ce, "d2h", 3)
	mk, _ := s.Run()
	if d2h.Start != h2d.End {
		t.Fatal("single copy engine must serialize transfers")
	}
	if mk != 6 {
		t.Fatalf("makespan %v", mk)
	}
}

func TestDualCopyEnginesOverlapDirections(t *testing.T) {
	s := New(0)
	up := s.NewResource("copy-h2d")
	down := s.NewResource("copy-d2h")
	a := s.Add(up, "h2d", 3)
	b := s.Add(down, "d2h", 3)
	mk, _ := s.Run()
	if a.Start != 0 || b.Start != 0 || mk != 3 {
		t.Fatal("dual copy engines must overlap opposite directions")
	}
}

func TestOriginOffset(t *testing.T) {
	s := New(10)
	r := s.NewResource("r")
	a := s.Add(r, "a", 1)
	mk, _ := s.Run()
	if a.Start != 10 || mk != 11 {
		t.Fatalf("origin not honoured: start %v makespan %v", a.Start, mk)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Two resources whose FIFO orders contradict the dependency edges.
	s := New(0)
	r1 := s.NewResource("r1")
	r2 := s.NewResource("r2")
	// r1 queue: a then b; r2 queue: c then d; a depends on d, d depends... build cycle:
	var a, c *Task
	a = &Task{} // placeholder to allow forward reference
	_ = a
	c = s.Add(r2, "c", 1) // c first in r2
	_ = c
	x := s.Add(r1, "x", 1, c) // fine
	// y in r2 depends on z which is queued behind it in r2 — impossible.
	z := &Task{Label: "z", Res: r2, Dur: 1}
	y := s.Add(r2, "y", 1, z)
	_ = y
	r2.queue = append(r2.queue, z)
	s.tasks = append(s.tasks, z)
	_ = x
	if _, err := s.Run(); err != ErrDeadlock {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

func TestAddPanics(t *testing.T) {
	s := New(0)
	r := s.NewResource("r")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative duration did not panic")
			}
		}()
		s.Add(r, "bad", -1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil resource did not panic")
			}
		}()
		s.Add(nil, "bad", 1)
	}()
}

func TestMaxEnd(t *testing.T) {
	s := New(0)
	r1 := s.NewResource("r1")
	r2 := s.NewResource("r2")
	a := s.Add(r1, "a", 2)
	b := s.Add(r2, "b", 5)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if MaxEnd(a, b, nil) != 5 {
		t.Fatal("MaxEnd wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MaxEnd on unfinished task did not panic")
			}
		}()
		MaxEnd(&Task{Label: "pending"})
	}()
}

// TestInvariantsQuick builds random well-formed DAGs (deps only on earlier
// submissions) and checks the core invariants: no task starts before its
// deps end, resources never overlap, makespan is the max end.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(0)
		nres := 1 + rng.Intn(4)
		res := make([]*Resource, nres)
		for i := range res {
			res[i] = s.NewResource("r")
		}
		var tasks []*Task
		for i := 0; i < 30; i++ {
			var deps []*Task
			for d := 0; d < rng.Intn(3) && len(tasks) > 0; d++ {
				deps = append(deps, tasks[rng.Intn(len(tasks))])
			}
			tasks = append(tasks, s.Add(res[rng.Intn(nres)], "t", float64(rng.Intn(10)), deps...))
		}
		mk, err := s.Run()
		if err != nil {
			return false
		}
		var maxEnd Time
		perRes := map[*Resource][]*Task{}
		for _, tk := range tasks {
			if tk.End > maxEnd {
				maxEnd = tk.End
			}
			for _, d := range tk.deps {
				if tk.Start < d.End {
					return false
				}
			}
			perRes[tk.Res] = append(perRes[tk.Res], tk)
		}
		if mk != maxEnd {
			return false
		}
		for _, list := range perRes {
			for i := 1; i < len(list); i++ {
				if list[i].Start < list[i-1].End {
					return false // resource overlap or FIFO violation
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResetRecyclesTasks(t *testing.T) {
	s := New(0)
	r := s.NewResource("r")
	a := s.Add(r, "a", 2)
	b := s.Add(r, "b", 3, a)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset(5)
	if s.Origin() != 5 {
		t.Fatalf("origin %v after Reset(5)", s.Origin())
	}
	if len(s.Tasks()) != 0 {
		t.Fatalf("%d tasks survive Reset", len(s.Tasks()))
	}
	// The recycled objects must come back clean: no stale deps or done flag
	// from their previous life.
	c := s.Add(r, "c", 1)
	d := s.Add(r, "d", 1, c)
	if c != b || d != a {
		t.Fatal("free list not reissuing recycled tasks (LIFO)")
	}
	if c.Done() || len(c.deps) != 0 {
		t.Fatal("recycled task carries stale state")
	}
	mk, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Start != 5 || d.End != 7 || mk != 7 {
		t.Fatalf("post-Reset schedule c=[%v,%v] d=[%v,%v] mk=%v",
			c.Start, c.End, d.Start, d.End, mk)
	}
}

func TestResetSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := New(0)
	r1 := s.NewResource("compute")
	r2 := s.NewResource("copy")
	frame := func() {
		in := s.Add(r2, "h2d", 1)
		k := s.Add(r1, "kernel", 3, in)
		s.Add(r2, "d2h", 1, k)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		s.Reset(0)
	}
	frame() // warm the free list and queues
	if n := testing.AllocsPerRun(50, frame); n != 0 {
		t.Fatalf("steady-state Reset/Add/Run loop allocates %v per frame, want 0", n)
	}
}
