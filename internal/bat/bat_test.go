package bat

import "testing"

func TestAppendAndAccess(t *testing.T) {
	b := NewInt("r_a", 4)
	for i := int64(0); i < 10; i++ {
		if err := b.AppendInt(i * 2); err != nil {
			t.Fatalf("AppendInt: %v", err)
		}
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d, want 10", b.Len())
	}
	for i := 0; i < 10; i++ {
		if got := b.Int(i); got != int64(i*2) {
			t.Errorf("Int(%d) = %d, want %d", i, got, i*2)
		}
		if got := b.OID(i); got != OID(i) {
			t.Errorf("OID(%d) = %d, want %d", i, got, i)
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	b := FromInts("base", []int64{10, 20, 30, 40, 50})
	v := b.View(1, 4)
	if v.Len() != 3 {
		t.Fatalf("view len = %d, want 3", v.Len())
	}
	if !v.IsView() || v.Parent() != b {
		t.Fatal("view lineage not recorded")
	}
	if v.HSeqBase() != 1 {
		t.Fatalf("view hseq = %d, want 1", v.HSeqBase())
	}
	if got := v.OID(0); got != 1 {
		t.Fatalf("view OID(0) = %d, want 1", got)
	}
	// A write through the view must be visible in the parent: the cracker
	// shuffles tuples inside view windows.
	v.SetInt(0, 99)
	if b.Int(1) != 99 {
		t.Fatalf("parent did not observe view write: %d", b.Int(1))
	}
	if err := v.AppendInt(1); err == nil {
		t.Fatal("append to view succeeded, want error")
	}
}

func TestViewBoundsPanics(t *testing.T) {
	b := FromInts("base", []int64{1, 2, 3})
	for _, c := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View(%d,%d) did not panic", c[0], c[1])
				}
			}()
			b.View(c[0], c[1])
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	b := FromInts("orig", []int64{1, 2, 3})
	c := b.Clone("copy")
	c.SetInt(0, 42)
	if b.Int(0) != 1 {
		t.Fatal("clone shares storage with original")
	}
}

func TestNamingAndTypeAccessors(t *testing.T) {
	b := NewInt("orig", 0)
	if b.Name() != "orig" {
		t.Fatalf("Name = %q", b.Name())
	}
	b.SetName("renamed")
	if b.Name() != "renamed" {
		t.Fatalf("SetName failed: %q", b.Name())
	}
	if got := b.String(); got != "bat[void,int]renamed#0" {
		t.Fatalf("String = %q", got)
	}
	v := FromInts("x", []int64{1}).View(0, 1)
	if got := v.String(); got != "view[void,int]x[0:1]#1" {
		t.Fatalf("view String = %q", got)
	}
}

func TestAppendInts(t *testing.T) {
	b := NewInt("bulk", 0)
	if err := b.AppendInts(3, 1, 2); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.Int(2) != 2 {
		t.Fatal("AppendInts lost data")
	}
	if err := b.View(0, 1).AppendInts(9); err == nil {
		t.Fatal("AppendInts on view succeeded")
	}
}
