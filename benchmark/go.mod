module ppclust/benchmark

go 1.24.0

require ppclust v0.0.0

replace ppclust => ../
