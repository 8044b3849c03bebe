# Adds bench/nbbench to the repository's root CMake project without editing
# it.  run.py configures the root project with
#
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_INCLUDE=<this file> \
#         -DNB_BUILD_TESTS=OFF -DNB_BUILD_BENCH=OFF -DNB_BUILD_EXAMPLES=OFF
#
# CMake reads this file right after the root project() call, before the root
# CMakeLists.txt sets the C++ standard and defines the libraries, so reading
# this directory's CMakeLists.txt is deferred to the end of the root
# directory (a deferred call may include a file but not add a directory).
cmake_language(DEFER CALL include "${CMAKE_SOURCE_DIR}/bench/nbbench/CMakeLists.txt")
