package recycle

import (
	"sync"
	"testing"
)

func TestGetIsZeroedAndSized(t *testing.T) {
	var s Slices[uint64]
	for round := 0; round < 3; round++ {
		for _, n := range []int{1, 7, 64, 1000} {
			b := s.Get(n)
			if len(b) != n {
				t.Fatalf("Get(%d) has length %d", n, len(b))
			}
			for i, v := range b {
				if v != 0 {
					t.Fatalf("Get(%d)[%d] = %d, want a zeroed slice", n, i, v)
				}
			}
			for i := range b {
				b[i] = ^uint64(0)
			}
			s.Put(b)
		}
	}
}

func TestPutEmptyIsIgnored(t *testing.T) {
	var s Slices[int]
	s.Put(nil)
	s.Put([]int{})
	if b := s.Get(0); len(b) != 0 {
		t.Fatalf("Get(0) has length %d", len(b))
	}
}

// TestConcurrentUse draws and returns buffers of two lengths from several
// goroutines at once: each must see its own zeroed buffer of the length it
// asked for, whatever the others dirty and return.
func TestConcurrentUse(t *testing.T) {
	var s Slices[int32]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 16 << (i % 2)
				b := s.Get(n)
				if len(b) != n {
					t.Errorf("Get(%d) has length %d", n, len(b))
					return
				}
				for j := range b {
					if b[j] != 0 {
						t.Errorf("Get(%d) returned a dirty buffer", n)
						return
					}
					b[j] = int32(g + 1)
				}
				s.Put(b)
			}
		}()
	}
	wg.Wait()
}
