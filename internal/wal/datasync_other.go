//go:build !linux

package wal

import "os"

// datasync flushes f's data; without fdatasync(2) that is a full fsync.
func datasync(f *os.File) error { return f.Sync() }
