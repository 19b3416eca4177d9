module utebench

go 1.22
