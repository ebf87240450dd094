package serve

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// fileSystem is what the ledger writes through: the journal appends and the
// snapshot commit. Production uses osFS; tests substitute calls that fail
// on demand (ENOSPC, short writes, fsync errors, torn renames).
type fileSystem struct {
	openFile func(name string, flag int, perm fs.FileMode) (file, error)
	rename   func(oldpath, newpath string) error
	remove   func(name string) error
}

// file is a writable file of a fileSystem. Sync makes its contents durable;
// on a directory, it makes the directory's entries durable.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// osFS is the real filesystem.
var osFS = fileSystem{
	openFile: func(name string, flag int, perm fs.FileMode) (file, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
	rename: os.Rename,
	remove: os.Remove,
}

// syncDir makes the entries of dir durable: a file created or renamed into
// it survives a host crash only once its directory has been fsynced.
func syncDir(fsys *fileSystem, dir string) error {
	d, err := fsys.openFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// commitFile durably replaces path with data: write a temp file, fsync it,
// rename it over path, fsync the directory. A crash at any point leaves
// either the old file or the new one, never a torn mix; a failure removes
// the temp file.
func commitFile(fsys *fileSystem, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.openFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: writing ledger: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.remove(tmp) //nolint:errcheck — the write error is the one to report
		return fmt.Errorf("serve: writing ledger: %w", err)
	}
	if err := fsys.rename(tmp, path); err != nil {
		fsys.remove(tmp) //nolint:errcheck — the rename error is the one to report
		return fmt.Errorf("serve: committing ledger: %w", err)
	}
	if err := syncDir(fsys, filepath.Dir(path)); err != nil {
		return fmt.Errorf("serve: committing ledger: %w", err)
	}
	return nil
}
