package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns a zeroed slice of n T's in anonymous memory outside
// the Go heap. Per-request samples and spans live there, so keeping
// them adds nothing to heap_mb, allocs_per_op or the collector's work,
// however many requests a run completes. T must hold no pointers. The
// mapping lives until the process exits; pages are only backed by
// memory once written.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d sample bytes: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}
