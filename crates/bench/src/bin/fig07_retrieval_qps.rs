fn main() {
    reis_bench::figures::fig07_retrieval_qps().print();
}
