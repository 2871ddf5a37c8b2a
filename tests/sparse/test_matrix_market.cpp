#include "sparse/matrix_market.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "matrices/generators.hpp"
#include "sparse/coo.hpp"

namespace bars {
namespace {

TEST(MatrixMarket, ParsesGeneralRealCoordinate) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "2 3 3\n"
      "1 1 1.5\n"
      "2 3 -2.0\n"
      "1 2 4.0\n");
  const Csr a = read_matrix_market(in);
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 4.0);
}

TEST(MatrixMarket, ExpandsSymmetricStorage) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "1 1 2.0\n"
      "3 1 -1.0\n");
  const Csr a = read_matrix_market(in);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 2), -1.0);
  EXPECT_DOUBLE_EQ(a.at(2, 0), -1.0);
}

TEST(MatrixMarket, ParsesPatternAsOnes) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n");
  const Csr a = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::istringstream in("not a matrix\n1 1 0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsArrayFormat) {
  std::istringstream in("%%MatrixMarket matrix array real general\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  const Csr a = trefethen(30);
  std::stringstream buf;
  write_matrix_market(buf, a);
  const Csr b = read_matrix_market(buf);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.nnz(), a.nnz());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
    }
  }
}

TEST(MatrixMarket, RoundTripKeepsEveryBit) {
  Coo coo(3, 3);
  coo.add(0, 0, 1.0 / 3.0);
  coo.add(0, 2, -3.141592653589793);
  coo.add(1, 1, 1e-300);
  coo.add(2, 0, 4.9406564584124654e-324);  // smallest subnormal
  coo.add(2, 2, 6.02214076e23);
  const Csr a = Csr::from_coo(coo);
  std::stringstream buf;
  write_matrix_market(buf, a);
  const Csr b = read_matrix_market(buf);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) EXPECT_EQ(b.at(i, j), a.at(i, j));
  }
}

TEST(MatrixMarket, UnsortedEntriesAreSortedAndDuplicatesSummed) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 4\n"
      "2 2 1.0\n"
      "1 2 2.0\n"
      "1 1 0.5\n"
      "1 2 0.25\n");
  const Csr a = read_matrix_market(in);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_EQ(a.at(0, 0), 0.5);
  EXPECT_EQ(a.at(0, 1), 2.25);
  EXPECT_EQ(a.at(1, 1), 1.0);
}

TEST(MatrixMarket, NumbersFollowStreamExtractionRules) {
  // A sign, a bare fraction, and text after a complete exponent read as
  // formatted extraction reads them.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "+1 1 +5\n"
      "1 2 -.5\n"
      "2 2 1e-3e\n");
  const Csr a = read_matrix_market(in);
  EXPECT_EQ(a.at(0, 0), 5.0);
  EXPECT_EQ(a.at(0, 1), -0.5);
  EXPECT_EQ(a.at(1, 1), 1e-3);
}

TEST(MatrixMarket, RejectsMalformedNumbersAndSizes) {
  const std::string header = "%%MatrixMarket matrix coordinate real general\n";
  for (const std::string body :
       {"1 1 1\n1 1 1e\n", "1 1 1\n1 1 inf\n", "1 1 1\n1 1 nan\n",
        "1 1 1\n1 1 +-1\n", "1 1 1\n1 1 1e999\n", "1 1 1\n1.5 1 1\n",
        "-1 1 0\n", "1 1 -1\n", "1 1\n"}) {
    std::istringstream in(header + body);
    EXPECT_THROW((void)read_matrix_market(in), std::runtime_error) << body;
  }
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW((void)read_matrix_market_file("/nonexistent/x.mtx"),
               std::runtime_error);
}

}  // namespace
}  // namespace bars
