# Pins the simulator tables' --quick output byte for byte, as
# sim_golden_test.cpp pins Figure 6's grid.  Runs BIN_DIR/<table> --quick for
# every table in TABLES (comma-separated) and compares its standard output
# with GOLDEN_DIR/<table>.quick.txt.  An intended change to a table updates
# its golden file from the output this script prints on a mismatch, and
# states its reason in the change description.
#
#   cmake -DBIN_DIR=<build>/bench -DGOLDEN_DIR=tests/golden \
#         -DTABLES=fig6_sgi,table_nursery -P tests/golden_tables.cmake

string(REPLACE "," ";" tables "${TABLES}")
set(mismatched "")
foreach(table IN LISTS tables)
  execute_process(COMMAND "${BIN_DIR}/${table}" --quick
                  OUTPUT_VARIABLE out
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${table} --quick exited with ${rc}")
    list(APPEND mismatched ${table})
    continue()
  endif()
  set(golden_file "${GOLDEN_DIR}/${table}.quick.txt")
  if(EXISTS "${golden_file}")
    file(READ "${golden_file}" golden)
  else()
    set(golden "")
  endif()
  if(NOT out STREQUAL golden)
    message(SEND_ERROR
            "${table} --quick differs from ${golden_file}; "
            "the whole new output follows:\n${out}")
    list(APPEND mismatched ${table})
  endif()
endforeach()
if(mismatched)
  message(FATAL_ERROR "tables differing from their golden output: ${mismatched}")
endif()
