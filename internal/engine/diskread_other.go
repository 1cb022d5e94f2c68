//go:build !unix

package engine

import (
	"io"
	"io/fs"
	"os"
)

// fileID identifies a file read, for os.SameFile.
type fileID struct{ info fs.FileInfo }

// readFile returns the contents of the file at name and its identity.
func readFile(name string) ([]byte, fileID, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, fileID{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fileID{}, err
	}
	blob := make([]byte, info.Size())
	if _, err := io.ReadFull(f, blob); err != nil {
		return nil, fileID{}, err
	}
	return blob, fileID{info}, nil
}

// names reports whether name is a name of the file id identifies.
func (id fileID) names(name string) bool {
	fi, err := os.Stat(name)
	return err == nil && os.SameFile(id.info, fi)
}
