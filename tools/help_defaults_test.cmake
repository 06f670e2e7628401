# Doc-drift gate: README.md states the --jobs default of each tool that
# has one ("`tool` defaults to `--jobs N`", or "`tool` and ... default to
# `--jobs N`"), and every tool's --help must print the same default. A
# tool with a --jobs flag that README does not mention fails too.
#
# Inputs: -DREADME=<path> -DTOOLS=<name=path,name=path,...>
string(REPLACE "," ";" tool_list "${TOOLS}")
file(READ ${README} readme)

set(checked 0)
foreach(entry IN LISTS tool_list)
  string(REGEX MATCH "^([^=]+)=(.+)$" _ "${entry}")
  set(name "${CMAKE_MATCH_1}")
  set(path "${CMAKE_MATCH_2}")
  execute_process(COMMAND ${path} --help
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --help exited with ${rc}")
  endif()
  set(help "${out}${err}")

  set(help_default "")
  if(help MATCHES "--jobs=<value> \\(default: ([0-9]+)\\)")
    set(help_default "${CMAKE_MATCH_1}")
  endif()
  set(readme_default "")
  if(readme MATCHES "`${name}`[^\n]*defaults? to `--jobs ([0-9]+)`")
    set(readme_default "${CMAKE_MATCH_1}")
  endif()

  if(help_default STREQUAL "" AND readme_default STREQUAL "")
    continue()
  endif()
  if(help_default STREQUAL "")
    message(FATAL_ERROR "README says ${name} defaults to --jobs "
                        "${readme_default}, but ${name} has no --jobs flag")
  endif()
  if(readme_default STREQUAL "")
    message(FATAL_ERROR "${name} has --jobs (default ${help_default}) but "
                        "README.md never states its default")
  endif()
  if(NOT help_default STREQUAL readme_default)
    message(FATAL_ERROR "README says ${name} defaults to --jobs "
                        "${readme_default}; ${name} --help says "
                        "${help_default}")
  endif()
  message(STATUS "${name}: --jobs default ${help_default} matches README")
  math(EXPR checked "${checked} + 1")
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no tool with a --jobs flag was checked")
endif()
