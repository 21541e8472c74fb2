package dfs

type FileSystem struct{ files map[string]*File }

type File struct{}

// publish is the one place the namespace changes.
func (fs *FileSystem) publish(name string, next *File) {
	if next == nil {
		delete(fs.files, name)
	} else {
		fs.files[name] = next
	}
}

func (fs *FileSystem) Open(name string) *File { return fs.files[name] }
