package wal

import (
	"os"
	"syscall"
)

// datasync flushes f's data with fdatasync(2): unlike fsync it skips the
// inode's timestamps, so a round written in place into a pre-zeroed
// segment costs a data flush and no journal commit. A write that grew
// the file still has its new size persisted, which reading the data
// back needs.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			if err != nil {
				return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
			}
			return nil
		}
	}
}
