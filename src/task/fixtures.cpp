#include "task/fixtures.hpp"

#include <vector>

#include "task/task.hpp"

namespace reconf::fixtures {

Device paper_device_small() { return Device{10}; }

TaskSet paper_table1() {
  return TaskSet({
      make_task(1.26, 7, 7, 9, "t1"),
      make_task(0.95, 5, 5, 6, "t2"),
  });
}

TaskSet paper_table2() {
  return TaskSet({
      make_task(4.50, 8, 8, 3, "t1"),
      make_task(8.00, 9, 9, 5, "t2"),
  });
}

TaskSet paper_table3() {
  return TaskSet({
      make_task(2.10, 5, 5, 7, "t1"),
      make_task(2.00, 7, 7, 7, "t2"),
  });
}

}  // namespace reconf::fixtures
