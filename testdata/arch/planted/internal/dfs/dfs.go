package dfs

type FileSystem struct{ files map[string]*File }

type File struct{}

func (fs *FileSystem) publish(name string, next *File) {
	if next == nil {
		delete(fs.files, name)
	} else {
		fs.files[name] = next
	}
}

func (fs *FileSystem) Create(name string) {
	fs.files[name] = &File{}
}

func (fs *FileSystem) Remove(name string) {
	delete(fs.files, name)
}
