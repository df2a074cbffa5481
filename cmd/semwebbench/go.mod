module semwebdb/cmd/semwebbench

go 1.24.0

require semwebdb v0.0.0

replace semwebdb => ../..
