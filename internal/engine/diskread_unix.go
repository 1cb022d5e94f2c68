//go:build unix

package engine

import (
	"io"
	"syscall"
)

// readFile returns the contents of the file at name. It opens, stats,
// reads and closes the file through syscall: an os.File would set up a
// pollable descriptor and a finalizer for the one read a published file
// needs. Its errors are the bare errnos, so ENOENT still matches
// fs.ErrNotExist.
func readFile(name string) ([]byte, error) {
	var fd int
	err := retryEINTR(func() (err error) {
		fd, err = syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := retryEINTR(func() error { return syscall.Fstat(fd, &st) }); err != nil {
		return nil, err
	}
	blob := make([]byte, st.Size)
	for off := 0; off < len(blob); {
		var n int
		err := retryEINTR(func() (err error) {
			n, err = syscall.Read(fd, blob[off:])
			return err
		})
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, io.ErrUnexpectedEOF
		}
		off += n
	}
	return blob, nil
}

// retryEINTR calls f until it returns anything but EINTR, as package os
// does around the same system calls.
func retryEINTR(f func() error) error {
	for {
		if err := f(); err != syscall.EINTR {
			return err
		}
	}
}
