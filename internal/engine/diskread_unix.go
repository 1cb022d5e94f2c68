//go:build unix

package engine

import (
	"io"
	"syscall"
)

// fileID identifies a file by its device and inode, as os.SameFile
// compares them.
type fileID struct{ dev, ino uint64 }

// readFile returns the contents of the file at name and its identity.
// It opens, stats, reads and closes the file through syscall: an
// os.File would set up a pollable descriptor and a finalizer for the
// one read a published file needs. Its errors are the bare errnos, so
// ENOENT still matches fs.ErrNotExist.
func readFile(name string) ([]byte, fileID, error) {
	var fd int
	err := retryEINTR(func() (err error) {
		fd, err = syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		return err
	})
	if err != nil {
		return nil, fileID{}, err
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := retryEINTR(func() error { return syscall.Fstat(fd, &st) }); err != nil {
		return nil, fileID{}, err
	}
	blob := make([]byte, st.Size)
	for off := 0; off < len(blob); {
		var n int
		err := retryEINTR(func() (err error) {
			n, err = syscall.Read(fd, blob[off:])
			return err
		})
		if err != nil {
			return nil, fileID{}, err
		}
		if n == 0 {
			return nil, fileID{}, io.ErrUnexpectedEOF
		}
		off += n
	}
	return blob, fileID{uint64(st.Dev), uint64(st.Ino)}, nil
}

// names reports whether name is a name of the file id identifies.
func (id fileID) names(name string) bool {
	var st syscall.Stat_t
	err := retryEINTR(func() error { return syscall.Stat(name, &st) })
	return err == nil && id == fileID{uint64(st.Dev), uint64(st.Ino)}
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
