package bat

import "testing"

func TestAppendAndAccess(t *testing.T) {
	b := NewInt("r_a", 4)
	for i := int64(0); i < 10; i++ {
		b.AppendInts(i * 2)
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d, want 10", b.Len())
	}
	for i := 0; i < 10; i++ {
		if got := b.Int(i); got != int64(i*2) {
			t.Errorf("Int(%d) = %d, want %d", i, got, i*2)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	b := FromInts("orig", []int64{1, 2, 3})
	c := b.Clone("copy")
	c.Ints()[0] = 42
	if b.Int(0) != 1 {
		t.Fatal("clone shares storage with original")
	}
}

func TestNamingAndTypeAccessors(t *testing.T) {
	b := NewInt("orig", 0)
	if b.Name() != "orig" {
		t.Fatalf("Name = %q", b.Name())
	}
	if got := b.String(); got != "bat[void,int]orig#0" {
		t.Fatalf("String = %q", got)
	}
}

func TestAppendInts(t *testing.T) {
	b := NewInt("bulk", 0)
	b.AppendInts(3, 1, 2)
	if b.Len() != 3 || b.Int(2) != 2 {
		t.Fatal("AppendInts lost data")
	}
}
